"""The repository's end-to-end benchmark: one seeded run of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload typing --seed 1 --seconds 20 --trace 0

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
repeats the same seeded run with spans around every layer's public
entry points and prints the per-layer metrics instead (the span file
goes to ``.perfbench_out/``). Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero
when a correctness gate fails or the sources under ``src/`` are absent.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


async def _execute(run) -> None:
    try:
        await run.execute()
    finally:
        await run.close()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no sources to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import REPORTED, GateError, Run
    from perfbench.stats import median
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out"
    workdir = out / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    run = Run(workload, args.seed, args.seconds, workdir, tracer)
    if tracer is not None:
        run.install_trace_hooks()
    correct = True
    try:
        asyncio.run(_execute(run))
        layers = run.per_layer() if tracer is not None else {}
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {workload.name} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("# params " + json.dumps(workload.params(args.seconds)))
    metrics = {}
    if correct:
        late = run.m.late_ms
        print(f"# open loop ran late: median {median(late):.3f} ms, max "
              f"{max(late):.3f} ms; failed {run.failed} of "
              f"{run.attempted} attempted")
        label = "traced" if tracer is not None else "untraced"
        for name, (value, unit, count) in run.end_to_end().items():
            note = "" if name in REPORTED else "  (unbounded)"
            print(f"{label:9s} {name:26s} {value:16.6f} {unit:8s} "
                  f"n={count}{note}")
            if tracer is None and name in REPORTED:
                metrics[name] = {"value": value, "unit": unit}
        if tracer is not None:
            for name, (value, unit) in layers.items():
                print(f"layer     {name:34s} {value:16.6f} {unit}")
                metrics[name] = {"value": value, "unit": unit}
            spans = out / f"trace-{workload.name}-seed{args.seed}.jsonl"
            tracer.write(spans)
            print(f"# spans written to {spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
