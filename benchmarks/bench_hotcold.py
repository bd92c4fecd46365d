"""Hot/cold sustained-edit benchmark: steady-state mixed-workload cost.

Measures what the counted descent, partial explode and re-collapse
hysteresis (DESIGN.md sections 6 and 12) are for: a document with a
large cold body being edited continuously.

1. **Edit latency vs cold size** — the document's cold region grows
   10x while the hot window (and the edit trace over it) stays fixed;
   per-edit p50/p99 must stay flat, which they only do when an index
   resolves in O(depth) and an edit explodes O(edit) of a touched leaf
   instead of the whole region.
2. **Scattered edits vs document size** — the end-to-end benchmark's
   big-doc base (every 31st atom deleted, collapsed) at three sizes
   16x apart, and one seeded set of scattered edits minted on a writer
   and applied on a receiver, with a 40-atom window read after each
   apply. Every column must stay flat from the smallest size to the
   largest (``scattered_ratio``): edits and reads far apart in a big
   document must not pay O(n).
3. **Steady-state resident bytes** — gc-reachability size of the tree
   at the largest cold size, after the trace (cold region still
   collapsed thanks to hysteresis re-collapse, hot window in tree
   form).
4. **Sweep cost** — the ``collapse_every`` auto-pass before/after:
   a full cold-region survey vs the incremental sweep off the
   touch-stamp log, on identical states.

Writes ``BENCH_hotcold.json`` (checked into the repo root; CI refreshes
it as an artifact and checks it against ``HOTCOLD_BUDGET.json``) and
prints a units-labelled summary. Run::

    PYTHONPATH=src python benchmarks/bench_hotcold.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.path import ROOT
from repro.core.treedoc import Treedoc
from repro.metrics import resident_bytes

#: Cold-region multipliers for the scaling sweep (the acceptance bar
#: names the 10x point).
SCALES = (1, 2, 5, 10)

#: Base sizes (atoms before the holes) of the scattered-edit table,
#: the same 16x span in both modes, and the edit count: quick mode is
#: the full table at a quarter of the scale, so edits land as densely
#: per collapsed region.
SCATTERED_SIZES = {"quick": (1_250, 5_000, 20_000),
                   "full": (5_000, 20_000, 80_000)}
SCATTERED_EDITS = {"quick": 100, "full": 400}
#: Every n-th base atom is deleted before the collapse, so the base
#: settles into many small leaves (the big-doc workload's base).
SCATTERED_HOLES = 31
SCATTERED_WINDOW = 40
SCATTERED_COLUMNS = ("remote_insert", "remote_delete", "window_read",
                     "local_insert", "local_delete")


def build_doc(cold_lines: int, hot_lines: int, *, collapse_every=None,
              min_atoms: int = 8) -> Treedoc:
    """A quiescent document: ``cold_lines`` collapsed into array leaves,
    ``hot_lines`` appended at the end as the editing window."""
    doc = Treedoc(site=1, mode="sdis", collapse_every=collapse_every,
                  collapse_min_atoms=min_atoms)
    chunk = 200
    written = 0
    while written < cold_lines:
        run = ["cold %d %s" % (written + k, "x" * 24)
               for k in range(min(chunk, cold_lines - written))]
        written += len(run)
        doc.insert_text(len(doc), run)
    doc.insert_text(len(doc), ["hot %d" % k for k in range(hot_lines)])
    doc.note_revision()
    doc.flatten_local(ROOT)
    for _ in range(3):
        doc.note_revision()
    doc.collapse_cold()
    return doc


def run_trace(doc: Treedoc, hot_lines: int, edits: int, warmup: int,
              seed: int = 7) -> dict:
    """The steady-state trace: alternating insert/delete confined to the
    hot window, revision boundaries every 8 edits, a snapshot read every
    16. Latencies cover the edit call only; boundary sweeps are
    totalled separately."""
    rng = random.Random(seed)
    tree = doc.tree

    def one_edit(step: int) -> None:
        pos = len(doc) - 1 - rng.randrange(hot_lines // 2)
        if step % 2 == 0:
            doc.insert_text(pos, ["hot edit %d" % step])
        else:
            doc.delete_range(pos, pos + 1)

    for step in range(warmup):
        one_edit(step)
        if step % 8 == 7:
            doc.note_revision()
    doc.text()

    base = (tree.explodes, tree.partial_explodes)
    durations: List[float] = []
    sweep_seconds = 0.0
    for step in range(edits):
        started = time.perf_counter()
        one_edit(step + 1)  # offset keeps the insert/delete balance
        durations.append(time.perf_counter() - started)
        if step % 8 == 7:
            started = time.perf_counter()
            doc.note_revision()
            sweep_seconds += time.perf_counter() - started
        if step % 16 == 15:
            doc.text()
    durations.sort()
    return {
        "edits": edits,
        "p50_ns": durations[len(durations) // 2] * 1e9,
        "p99_ns": durations[min(len(durations) - 1,
                                int(len(durations) * 0.99))] * 1e9,
        "boundary_seconds": sweep_seconds,
        "explodes": tree.explodes - base[0],
        "partial_explodes": tree.partial_explodes - base[1],
    }


def measure_scaling(cfg: dict) -> List[dict]:
    rows = []
    for scale in SCALES:
        cold = cfg["base_cold"] * scale
        doc = build_doc(cold, cfg["hot_lines"],
                        collapse_every=cfg["collapse_every"],
                        min_atoms=cfg["min_atoms"])
        trace = run_trace(doc, cfg["hot_lines"], cfg["edits"],
                          cfg["warmup"])
        row = {
            "scale": scale,
            "cold_lines": cold,
            "atoms": len(doc),
            "array_leaves": doc.array_leaf_count,
            **trace,
        }
        if scale == SCALES[-1]:
            atom_ids = set(map(id, doc.atoms()))
            row["resident_bytes"] = resident_bytes(doc.tree, atom_ids)
        rows.append(row)
    return rows


def build_scattered_pair(atoms: int) -> Tuple[Treedoc, Treedoc]:
    """Writer and receiver holding the same quiescent base: ``atoms``
    characters typed, flattened, every 31st deleted, collapsed, and
    shipped to the receiver as one state frame (leaves stay leaves)."""
    writer = Treedoc(site=1, mode="udis")
    for start in range(0, atoms, 200):
        writer.insert_text(len(writer), [
            chr(97 + (start + k) % 26)
            for k in range(min(200, atoms - start))])
    writer.note_revision()
    writer.flatten_local(ROOT)
    for index in range(len(writer) - SCATTERED_HOLES, 0, -SCATTERED_HOLES):
        writer.delete(index)
    for _ in range(3):
        writer.note_revision()
    writer.collapse_cold()
    receiver = Treedoc(site=2, mode="udis")
    receiver.load_state(writer.capture_state())
    return writer, receiver


def scattered_edits(count: int,
                    seed: int = 7) -> List[Tuple[bool, float, int, float]]:
    """The seeded edit set, size-free: (insert?, position as a fraction
    of the length, run length, window position as a fraction)."""
    rng = random.Random(seed)
    return [(rng.random() < 0.5, rng.random(), rng.randint(1, 2),
             rng.random()) for _ in range(count)]


def _p50(samples: List[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _middle_mean(samples: List[float]) -> float:
    """Mean of the middle half (quartile 1 to 3) of ``samples``."""
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return sum(middle) / len(middle)


def measure_scattered(mode: str) -> dict:
    """Per base size, the p50 of every edit path and of a window read,
    over the same edit set; then each column's largest/smallest ratio.

    The ratios compare middle-half means, not the p50s: an apply that
    lands in a region not yet exploded pays the explode, and at the
    smallest size about half of them do (more of the seeded edits reuse
    a region an earlier one exploded), so the p50 there sits between
    the two modes and jumps from run to run. The middle-half mean moves
    smoothly with that share and still drops timer outliers."""
    edits = scattered_edits(SCATTERED_EDITS[mode])
    sizes = SCATTERED_SIZES[mode]
    pairs = [build_scattered_pair(atoms) for atoms in sizes]
    rows = [{"base_atoms": atoms, "live_atoms": len(writer),
             "array_leaves": writer.array_leaf_count}
            for atoms, (writer, _) in zip(sizes, pairs)]
    samples = [{c: [] for c in SCATTERED_COLUMNS} for _ in sizes]
    clock = time.perf_counter
    # Each edit runs at every size before the next edit, so a change in
    # the host's speed during the run hits all sizes alike.
    for insert, where, length, window in edits:
        for (writer, receiver), taken in zip(pairs, samples):
            position = int(where * len(writer))
            started = clock()
            if insert:
                batch = writer.insert_text(position, ["x"] * length)
            else:
                position = min(position, len(writer) - length)
                batch = writer.delete_range(position, position + length)
            minted = clock()
            receiver.apply_batch(batch)
            applied = clock()
            start = int(window * (len(receiver) - SCATTERED_WINDOW))
            for index in range(start, start + SCATTERED_WINDOW):
                receiver.atom_at(index)
            read = clock()
            kind = "insert" if insert else "delete"
            taken["local_" + kind].append(minted - started)
            taken["remote_" + kind].append(applied - minted)
            taken["window_read"].append(read - applied)
    for row, (writer, receiver), taken in zip(rows, pairs, samples):
        if receiver.text() != writer.text():
            raise RuntimeError("scattered replicas diverged")
        for c in SCATTERED_COLUMNS:
            row[c + "_p50_ns"] = _p50(taken[c]) * 1e9
            row[c + "_mid_mean_ns"] = _middle_mean(taken[c]) * 1e9
    ratios = {c: rows[-1][c + "_mid_mean_ns"] / rows[0][c + "_mid_mean_ns"]
              for c in SCATTERED_COLUMNS}
    return {
        "edits": len(edits),
        "holes": SCATTERED_HOLES,
        "window": SCATTERED_WINDOW,
        "rows": rows,
        "ratios": ratios,
        "scattered_ratio": max(ratios.values()),
    }


def measure_cold_touch(cfg: dict, repeats: int) -> List[dict]:
    """First edit into the interior of a big collapsed leaf: the edit
    path partial-explodes (leaf / exploded core / leaf around the touch
    point) vs wholesale explosion of a comparable leaf — the pre-PR
    cost of any interior touch. Leaves below the partial-explode
    threshold (small scales in --quick) explode fully; the row records
    which path ran."""
    rows = []
    for scale in SCALES:
        cold = cfg["base_cold"] * scale
        touch_seconds = explode_seconds = float("inf")
        partial = False
        explode_atoms = 0
        for _ in range(repeats):
            doc = build_doc(cold, cfg["hot_lines"],
                            min_atoms=cfg["min_atoms"])
            doc.text()
            before = doc.tree.partial_explodes
            started = time.perf_counter()
            doc.insert_text(len(doc) // 2, ["probe"])
            touch_seconds = min(touch_seconds,
                                time.perf_counter() - started)
            partial = doc.tree.partial_explodes > before
            doc = build_doc(cold, cfg["hot_lines"],
                            min_atoms=cfg["min_atoms"])
            doc.text()
            leaf = max(doc.tree.array_leaves(), key=lambda l: l.id_count)
            explode_atoms = leaf.id_count
            started = time.perf_counter()
            leaf.explode()
            explode_seconds = min(explode_seconds,
                                  time.perf_counter() - started)
        rows.append({
            "scale": scale,
            "cold_lines": cold,
            "partial": partial,
            "first_touch_ns": touch_seconds * 1e9,
            "full_explode_ns": explode_seconds * 1e9,
            "full_explode_atoms": explode_atoms,
            "touch_speedup": explode_seconds / touch_seconds,
        })
    return rows


def measure_sweeps(cfg: dict, repeats: int) -> dict:
    """Full survey vs incremental sweep on identical touched states.

    Both docs get the same post-collapse hot edits; the full pass then
    re-surveys the whole tree (the pre-PR auto-collapse cost), while
    the incremental pass only visits the regions the touch-stamp log
    queued — what ``collapse_every`` boundaries now run."""
    cold = cfg["base_cold"] * SCALES[-1]
    touches = 24
    full_seconds = incremental_seconds = float("inf")
    for _ in range(repeats):
        for incremental in (False, True):
            doc = build_doc(cold, cfg["hot_lines"],
                            min_atoms=cfg["min_atoms"])
            doc.collapse_every = 1  # queue touches from here on
            rng = random.Random(3)
            for step in range(touches):
                pos = len(doc) - 1 - rng.randrange(cfg["hot_lines"] // 2)
                doc.insert_text(pos, ["touch %d" % step])
            started = time.perf_counter()
            if incremental:
                doc._collapse_cold_incremental()
                incremental_seconds = min(
                    incremental_seconds, time.perf_counter() - started)
            else:
                doc.collapse_cold()
                full_seconds = min(
                    full_seconds, time.perf_counter() - started)
    return {
        "touched_edits": touches,
        "cold_lines": cold,
        "full_pass_seconds": full_seconds,
        "incremental_seconds": incremental_seconds,
        "sweep_speedup": full_seconds / incremental_seconds,
    }


def _fmt_ns(nanos: float) -> str:
    for unit, scale in (("ns", 1), ("µs", 1e3), ("ms", 1e6), ("s", 1e9)):
        if nanos < 1000 * scale or unit == "s":
            return f"{nanos / scale:,.1f} {unit}"
    return f"{nanos / 1e9:.3f} s"  # pragma: no cover


def _render(results: dict) -> str:
    lines = [
        "Hot/cold sustained-edit benchmark "
        "(fixed hot window, growing cold body)",
        "",
        "  scale   atoms  leaves   edit p50    edit p99  partial",
    ]
    for row in results["hot_cold"]:
        lines.append(
            f"  {row['scale']:>4d}x {row['atoms']:>7,d} "
            f"{row['array_leaves']:>7d} {_fmt_ns(row['p50_ns']):>10s} "
            f"{_fmt_ns(row['p99_ns']):>11s} {row['partial_explodes']:>8d}"
        )
    largest = results["hot_cold"][-1]
    lines += [
        "",
        f"  edit p99 at 10x cold       {results['p99_ratio']:.2f}x the 1x "
        f"p99 (flat = O(edit), not O(document))",
        f"  resident tree bytes (10x)  {largest['resident_bytes']:,d} B "
        f"({largest['array_leaves']} leaves held collapsed)",
        "",
        f"scattered edits ({results['scattered']['edits']} seeded, "
        f"p50 per column):",
        "  live atoms  leaves  remote ins  remote del  40-atom read"
        "   local ins   local del",
    ]
    for row in results["scattered"]["rows"]:
        lines.append(
            f"  {row['live_atoms']:>10,d} {row['array_leaves']:>7d} "
            + " ".join(f"{_fmt_ns(row[c + '_p50_ns']):>11s}"
                       for c in SCATTERED_COLUMNS)
        )
    lines += [
        f"  largest/smallest size      "
        f"{results['scattered']['scattered_ratio']:.2f}x at worst, "
        f"middle-half means (flat = O(depth), not O(document))",
        "",
        "first touch into the cold leaf interior "
        "(partial explode vs wholesale):",
    ]
    for row in results["cold_touch"]:
        path = "partial" if row["partial"] else "full   "
        lines.append(
            f"  {row['scale']:>4d}x [{path}] "
            f"{_fmt_ns(row['first_touch_ns']):>10s} edit vs "
            f"{_fmt_ns(row['full_explode_ns']):>10s} wholesale "
            f"({row['full_explode_atoms']:,d} atoms)   "
            f"{row['touch_speedup']:.1f}x"
        )
    lines += [
        "",
        "collapse_every boundary sweep (same touched state):",
        f"  full survey pass           "
        f"{_fmt_ns(results['sweep']['full_pass_seconds'] * 1e9):>10s}",
        f"  incremental (stamp log)    "
        f"{_fmt_ns(results['sweep']['incremental_seconds'] * 1e9):>10s}"
        f"   {results['sweep']['sweep_speedup']:.1f}x faster",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (seconds, not minutes)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_hotcold.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.quick:
        cfg = dict(base_cold=240, hot_lines=48, edits=240, warmup=64,
                   collapse_every=4, min_atoms=8)
        repeats = 2
    else:
        cfg = dict(base_cold=800, hot_lines=64, edits=800, warmup=128,
                   collapse_every=4, min_atoms=8)
        repeats = 3
    rows = measure_scaling(cfg)
    results = {
        "config": {
            "quick": args.quick,
            **cfg,
            "scales": list(SCALES),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "hot_cold": rows,
        "p99_ratio": rows[-1]["p99_ns"] / rows[0]["p99_ns"],
        "scattered": measure_scattered("quick" if args.quick else "full"),
        "cold_touch": measure_cold_touch(cfg, repeats),
        "sweep": measure_sweeps(cfg, repeats),
    }
    print(_render(results))
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
