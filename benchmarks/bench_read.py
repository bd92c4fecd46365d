"""Read-path benchmark: snapshot and replay throughput, all four CRDTs.

Measures the two read workloads:

1. **Repeated snapshot reads** — ``atoms()`` / ``text()`` on a built
   document, the read the editor, convergence checks and the experiment
   tables all hammer. For Treedoc ``atoms()`` is one entry walk per
   call and ``text()`` is cached per generation (DESIGN.md section 6).
2. **Revision replay end-to-end** — ``replay_history`` over a synthetic
   history (the paper's section 5 procedure), whose per-revision
   convergence check reads the whole snapshot, plus ``replay_into``
   throughput for the Logoot/WOOT/RGA baselines.

Writes ``BENCH_read.json`` (checked into the repo root; CI refreshes it
as an artifact) and prints a summary table. Run::

    PYTHONPATH=src python benchmarks/bench_read.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.baselines import LogootDoc, RgaDoc, TreedocAdapter, WootDoc
from repro.core.treedoc import Treedoc
from repro.workloads.corpus import DocumentSpec
from repro.workloads.editing import generate_history
from repro.workloads.replay import replay_history, replay_into

FACTORIES: Dict[str, Callable[[int], object]] = {
    "treedoc-udis": lambda site: TreedocAdapter(site, mode="udis"),
    "treedoc-sdis": lambda site: TreedocAdapter(site, mode="sdis"),
    "logoot": lambda site: LogootDoc(site, seed=7),
    "woot": WootDoc,
    "rga": RgaDoc,
}


def _best_of(repeats: int, run: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _build_document(factory: Callable[[int], object], atom_count: int):
    """A document with edit structure (bursts + trims), ``atom_count``
    atoms at the end."""
    doc = factory(1)
    chunk = 50
    tag = 0
    while len(doc) < atom_count:
        run = [f"w{tag}.{k}" for k in range(min(chunk, atom_count - len(doc)))]
        tag += 1
        doc.insert_text(len(doc) * 2 // 3, run)
        if len(doc) > 120 and tag % 4 == 0:
            doc.delete_range(len(doc) // 2, len(doc) // 2 + 10)
    return doc


def measure_snapshot(atom_count: int, reads: int, repeats: int) -> List[dict]:
    """Repeated-snapshot throughput per CRDT (atoms + text per read)."""
    rows: List[dict] = []
    for name, factory in FACTORIES.items():
        doc = _build_document(factory, atom_count)

        def read_all(doc=doc):
            for _ in range(reads):
                doc.atoms()
                doc.text()

        row = {
            "crdt": name,
            "atoms": len(doc),
            "reads": reads,
            "seconds": _best_of(repeats, read_all),
        }
        row["reads_per_second"] = reads / row["seconds"]
        rows.append(row)
    return rows


def _history(revisions: int, final_atoms: int, seed: int = 2009):
    spec = DocumentSpec(
        name=f"bench-read-{revisions}x{final_atoms}",
        kind="latex",
        final_atoms=final_atoms,
        final_bytes=final_atoms * 40,
        revisions=revisions,
        initial_atoms=max(9, final_atoms // 10),
    )
    return generate_history(spec, seed)


def measure_replay(revisions: int, final_atoms: int, repeats: int) -> List[dict]:
    """End-to-end revision replay, Treedoc and the baselines."""
    history = _history(revisions, final_atoms)
    rows: List[dict] = []
    seconds = _best_of(repeats, lambda: replay_history(
        Treedoc(site=1, mode="sdis"), history, flatten_every=8))
    rows.append({
        "crdt": "treedoc-sdis",
        "revisions": revisions,
        "seconds": seconds,
        "revisions_per_second": revisions / seconds,
    })
    for name in ("logoot", "woot", "rga"):
        seconds = _best_of(
            repeats, lambda name=name: replay_into(FACTORIES[name](1), history)
        )
        rows.append({
            "crdt": name,
            "revisions": revisions,
            "seconds": seconds,
            "revisions_per_second": revisions / seconds,
        })
    return rows


#: Self-contained measurement driver run in a subprocess against an
#: arbitrary source tree (PYTHONPATH selects the version); it only uses
#: long-standing public APIs, so running it against an older checkout
#: gives the end-to-end before/after numbers.
_DRIVER = r"""
import json, sys, time
from repro.baselines import TreedocAdapter
from repro.core.treedoc import Treedoc
from repro.workloads.corpus import DocumentSpec
from repro.workloads.editing import generate_history
from repro.workloads.replay import replay_history

cfg = json.loads(sys.argv[1])

def best_of(repeats, run):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best

spec = DocumentSpec(
    name="bench-read-baseline", kind="latex",
    final_atoms=cfg["final_atoms"], final_bytes=cfg["final_atoms"] * 40,
    revisions=cfg["revisions"], initial_atoms=max(9, cfg["final_atoms"] // 10),
)
history = generate_history(spec, cfg["seed"])

def replay_run():
    replay_history(Treedoc(site=1, mode="sdis"), history, flatten_every=8)

# Replay is timed before the big snapshot document exists: a large
# live heap inflates GC cost inside the measured loop.
replay_seconds = best_of(cfg["repeats"], replay_run)

doc = TreedocAdapter(1, mode="sdis")
chunk, tag = 50, 0
while len(doc) < cfg["atom_count"]:
    run = ["w%d.%d" % (tag, k)
           for k in range(min(chunk, cfg["atom_count"] - len(doc)))]
    tag += 1
    doc.insert_text(len(doc) * 2 // 3, run)
    if len(doc) > 120 and tag % 4 == 0:
        doc.delete_range(len(doc) // 2, len(doc) // 2 + 10)

def snapshot_run():
    for _ in range(cfg["reads"]):
        doc.atoms()
        doc.text()

print(json.dumps({
    "replay_seconds": replay_seconds,
    "snapshot_seconds": best_of(cfg["repeats"], snapshot_run),
}))
"""


def _run_driver(src: Path, cfg: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    output = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps(cfg)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(output.stdout)


def measure_vs_prepr(baseline_src: Path, snapshot_cfg: dict,
                   replay_cfg: dict) -> dict:
    """End-to-end before/after: the same driver against the pre-PR
    source tree and the current one."""
    cfg = {
        "seed": 2009,
        "revisions": replay_cfg["revisions"],
        "final_atoms": replay_cfg["final_atoms"],
        "atom_count": snapshot_cfg["atom_count"],
        "reads": snapshot_cfg["reads"],
        "repeats": max(snapshot_cfg["repeats"], replay_cfg["repeats"]),
    }
    current_src = Path(__file__).resolve().parent.parent / "src"
    current = _run_driver(current_src, cfg)
    baseline = _run_driver(baseline_src, cfg)
    return {
        "baseline_src": str(baseline_src),
        "config": cfg,
        "replay": {
            "seconds": current["replay_seconds"],
            "seconds_pre_pr": baseline["replay_seconds"],
            "speedup": baseline["replay_seconds"] / current["replay_seconds"],
        },
        "snapshot": {
            "seconds": current["snapshot_seconds"],
            "seconds_pre_pr": baseline["snapshot_seconds"],
            "speedup": (
                baseline["snapshot_seconds"] / current["snapshot_seconds"]
            ),
        },
    }


def _render(results: dict) -> str:
    lines = ["Read-path throughput (best of N)", ""]
    lines.append(f"{'snapshot reads':16s} {'atoms':>6s} {'reads/s':>10s}")
    for row in results["snapshot"]:
        lines.append(f"{row['crdt']:16s} {row['atoms']:6d} "
                     f"{row['reads_per_second']:10.0f}")
    lines.append("")
    lines.append(f"{'revision replay':16s} {'revs':>6s} {'revs/s':>10s}")
    for row in results["replay"]:
        lines.append(f"{row['crdt']:16s} {row['revisions']:6d} "
                     f"{row['revisions_per_second']:10.1f}")
    prepr = results.get("vs_pre_pr")
    if prepr:
        lines.append("")
        lines.append("vs. the baseline checkout (same driver, both source trees):")
        lines.append(
            f"  snapshot reads: {prepr['snapshot']['speedup']:.1f}x   "
            f"revision replay: {prepr['replay']['speedup']:.2f}x"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (seconds, not minutes)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_read.json",
                        help="where to write the JSON report")
    parser.add_argument("--baseline-src", type=Path, default=None,
                        help="path to an older checkout's src/ directory; "
                        "adds an end-to-end before/after comparison")
    args = parser.parse_args(argv)
    if args.quick:
        snapshot_cfg = dict(atom_count=2_000, reads=20, repeats=2)
        replay_cfg = dict(revisions=40, final_atoms=300, repeats=2)
    else:
        # Replay sized like the paper's largest LaTeX document (~1500
        # line atoms) so the per-revision snapshot reads matter the way
        # the motivation says they do.
        snapshot_cfg = dict(atom_count=20_000, reads=40, repeats=3)
        replay_cfg = dict(revisions=200, final_atoms=1_500, repeats=3)
    results = {
        "config": {
            "quick": args.quick,
            "snapshot": snapshot_cfg,
            "replay": replay_cfg,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "snapshot": measure_snapshot(**snapshot_cfg),
        "replay": measure_replay(**replay_cfg),
    }
    if args.baseline_src is not None:
        results["vs_pre_pr"] = measure_vs_prepr(
            args.baseline_src, snapshot_cfg, replay_cfg
        )
    print(_render(results))
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
