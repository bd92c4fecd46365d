"""Mixed-storage benchmark: resident bytes and reads on quiescent docs.

Measures what the live tree/array storage (section 4.2, DESIGN.md
section 7) is for: the steady-state cost of a document that is mostly
*not* being edited.

1. **Live-tree resident bytes** — the real in-memory size of the tree
   structure (every node, mini tuple, cache list and leaf — atom
   payloads excluded, since both forms share them), measured by a
   generic gc-reachability walk that runs unchanged on any source tree.
   The same driver runs in a subprocess against the current ``src/``
   and, with ``--baseline-src``, against a pre-PR checkout — the honest
   before/after the acceptance bar asks for.
2. **Quiescent snapshot reads** — ``atoms()``/``text()`` throughput on
   the collapsed document (leaves contribute slices, not per-slot
   appends).
3. **Mixed-form mechanics** (current tree only) — the collapse pass,
   explode-on-touch latency, and the leaf census.

Writes ``BENCH_storage.json`` (checked into the repo root; CI refreshes
it as an artifact) and prints a units-labelled summary. Run::

    PYTHONPATH=src python benchmarks/bench_storage.py [--quick]
        [--baseline-src PATH]
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
from typing import Optional

#: Self-contained measurement driver run in a subprocess against an
#: arbitrary source tree (PYTHONPATH selects the version). It only uses
#: APIs that exist in every measured tree — the collapse pass is
#: feature-detected, which on an older tree simply measures the pure
#: tree form. The resident-bytes walk is always this checkout's
#: ``repro.metrics.resident``, loaded by file path (it needs only the
#: standard library), so both trees are measured by the same walk.
_DRIVER = r"""
import importlib.util, json, sys, time
from repro.core.path import ROOT
from repro.core.treedoc import Treedoc

cfg = json.loads(sys.argv[1])
_spec = importlib.util.spec_from_file_location("resident", cfg["walker"])
resident = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(resident)

def best_of(repeats, run):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best

def build_quiescent(lines):
    # Edit structure (bursts + trims), then flatten and go cold: the
    # paper's steady state for a ~1500-line LaTeX document.
    doc = Treedoc(site=1, mode="sdis")
    chunk, tag = 50, 0
    while len(doc) < lines:
        run = ["line %d.%d %s" % (tag, k, "x" * 24)
               for k in range(min(chunk, lines - len(doc)))]
        tag += 1
        doc.insert_text(len(doc) * 2 // 3, run)
        if len(doc) > 120 and tag % 4 == 0:
            doc.delete_range(len(doc) // 2, len(doc) // 2 + 10)
    doc.note_revision()
    doc.flatten_local(ROOT)
    for _ in range(3):
        doc.note_revision()
    return doc

doc = build_quiescent(cfg["lines"])
collapsed = 0
if hasattr(doc, "collapse_cold"):
    collapsed = len(doc.collapse_cold(min_age=1, min_atoms=cfg["min_atoms"]))
doc.atoms(); doc.text()  # steady state: read caches built on both forms

def reads():
    for _ in range(cfg["reads"]):
        doc.atoms()
        doc.text()

snapshot_seconds = best_of(cfg["repeats"], reads)
atom_ids = set(map(id, doc.atoms()))
print(json.dumps({
    "atoms": len(doc),
    "collapsed_regions": collapsed,
    "resident_bytes": resident.resident_bytes(doc.tree, atom_ids),
    "snapshot_seconds": snapshot_seconds,
}))
"""


#: The one resident-bytes walker, loaded by the measurement subprocess
#: for every source tree it measures.
_WALKER = (Path(__file__).resolve().parent.parent
           / "src" / "repro" / "metrics" / "resident.py")


def _run_driver(src: Path, cfg: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    output = subprocess.run(
        [sys.executable, "-c", _DRIVER,
         json.dumps({**cfg, "walker": str(_WALKER)})],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(output.stdout)


def measure_mechanics(lines: int, repeats: int) -> dict:
    """Collapse/explode mechanics on the current tree (in-process)."""
    from repro.core.path import ROOT
    from repro.core.treedoc import Treedoc

    def build():
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, [f"line {i}" for i in range(lines)])
        doc.note_revision()
        doc.flatten_local(ROOT)
        for _ in range(3):
            doc.note_revision()
        return doc

    collapse_seconds = explode_seconds = float("inf")
    leaves = resident_nodes = 0
    for _ in range(repeats):
        doc = build()
        started = time.perf_counter()
        doc.collapse_cold(min_age=1, min_atoms=8)
        collapse_seconds = min(
            collapse_seconds, time.perf_counter() - started
        )
        leaves = doc.array_leaf_count
        resident_nodes = sum(1 for _ in doc.tree.root.iter_nodes())
        started = time.perf_counter()
        for leaf in doc.tree.array_leaves():
            leaf.explode()
        explode_seconds = min(explode_seconds, time.perf_counter() - started)
    return {
        "collapse_seconds": collapse_seconds,
        "explode_seconds": explode_seconds,
        "array_leaves": leaves,
        "resident_nodes": resident_nodes,
    }


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB"):
        if abs(value) < 1024 or unit == "MiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{value:,.0f} B"
        value /= 1024
    return f"{value:,.1f} MiB"  # pragma: no cover


def _fmt_ns(seconds: float) -> str:
    nanos = seconds * 1e9
    for unit, scale in (("ns", 1), ("µs", 1e3), ("ms", 1e6), ("s", 1e9)):
        if nanos < 1000 * scale or unit == "s":
            return f"{nanos / scale:,.1f} {unit}"
    return f"{seconds:.3f} s"  # pragma: no cover


def _render(results: dict) -> str:
    current = results["current"]
    lines = [
        "Mixed-storage benchmark (quiescent document, best of N)",
        "",
        f"  document              {current['atoms']:6d} atoms",
        f"  collapsed regions     {current['collapsed_regions']:6d}",
        f"  resident tree bytes   {_fmt_bytes(current['resident_bytes']):>12s}",
        f"  snapshot read pass    {_fmt_ns(current['snapshot_seconds']):>12s}"
        f"  ({results['config']['reads']} atoms()+text() reads)",
    ]
    baseline = results.get("pre_pr")
    if baseline:
        lines += [
            "",
            "vs. pre-PR main (same driver, both source trees):",
            f"  resident tree bytes   "
            f"{_fmt_bytes(baseline['resident_bytes']):>12s} -> "
            f"{_fmt_bytes(current['resident_bytes']):>12s}   "
            f"{results['resident_bytes_reduction']:.1f}x smaller",
            f"  snapshot read pass    "
            f"{_fmt_ns(baseline['snapshot_seconds']):>12s} -> "
            f"{_fmt_ns(current['snapshot_seconds']):>12s}   "
            f"{results['snapshot_speedup']:.2f}x",
        ]
    mechanics = results.get("mechanics")
    if mechanics:
        lines += [
            "",
            "mixed-form mechanics (current tree):",
            f"  collapse pass         "
            f"{_fmt_ns(mechanics['collapse_seconds']):>12s}"
            f"  ({mechanics['array_leaves']} leaves, "
            f"{mechanics['resident_nodes']} resident nodes)",
            f"  explode all regions   "
            f"{_fmt_ns(mechanics['explode_seconds']):>12s}",
        ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (seconds, not minutes)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_storage.json",
                        help="where to write the JSON report")
    parser.add_argument("--baseline-src", type=Path, default=None,
                        help="path to a pre-PR checkout's src/ directory; "
                        "adds the before/after resident-bytes comparison")
    args = parser.parse_args(argv)
    if args.quick:
        cfg = dict(lines=300, min_atoms=8, reads=20, repeats=2)
    else:
        # The paper's largest LaTeX document is ~1500 line atoms — the
        # scale the acceptance bar names.
        cfg = dict(lines=1500, min_atoms=8, reads=40, repeats=3)
    current_src = Path(__file__).resolve().parent.parent / "src"
    results: dict = {
        "config": {
            "quick": args.quick,
            **cfg,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "current": _run_driver(current_src, cfg),
        "mechanics": measure_mechanics(cfg["lines"], cfg["repeats"]),
    }
    if args.baseline_src is not None:
        baseline = _run_driver(args.baseline_src, cfg)
        results["pre_pr"] = baseline
        results["baseline_src"] = str(args.baseline_src)
        results["resident_bytes_reduction"] = (
            baseline["resident_bytes"] / results["current"]["resident_bytes"]
        )
        results["snapshot_speedup"] = (
            baseline["snapshot_seconds"]
            / results["current"]["snapshot_seconds"]
        )
    print(_render(results))
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
