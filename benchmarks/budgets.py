"""Check the checked-in benchmark reports against their budgets::

    python -m benchmarks check [--root DIR]

``BUDGETS.json`` holds the ceilings and floors a report must stay
within, per run size (``quick`` or ``full``, read from the report's
own config):

- ``wire`` — wire bytes per replayed message and per-site wire bytes
  of the churn-scaling run in ``BENCH_network.json``
  (``bench_network.py`` also holds each fresh run to it);
- ``hotcold`` — the latency ratios, sweep and touch speedups and
  resident bytes in ``BENCH_hotcold.json``.

Every check prints one line; the exit status is 1 when any of them is
out of budget, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The one budget file, beside the reports it holds.
BUDGETS = "BUDGETS.json"


def load(root: Path, name: str = BUDGETS) -> dict:
    """One JSON file under ``root`` (by default the budgets)."""
    return json.loads((root / name).read_text())


def _mode(report: dict) -> str:
    return "quick" if report["config"]["quick"] else "full"


def check_wire(report: dict, budget: dict) -> bool:
    """Replay bytes per message and per-site churn wire bytes of a
    ``BENCH_network`` report against the ``wire`` budget."""
    mode = _mode(report)
    replay = report["replay"]
    per_message = (replay["wire_bytes_to_laggard"]
                   / replay["messages_to_laggard"])
    cap = budget["replay_bytes_per_message"][mode]
    print(f"   replay: {per_message:,.1f} bytes/message (budget {cap:,d})")
    ok = per_message <= cap
    if not ok:
        print("FAIL: replay bytes per message over budget", file=sys.stderr)
    ceilings = budget["churn_bytes_per_site"][mode]
    for row in report["churn_scaling"]:
        cap = ceilings[str(row["sites"])]
        used = row["wire_bytes_per_site"]
        print(f"{row['sites']:>3d} sites: {used:,.0f} bytes/site "
              f"(budget {cap:,d})")
        if used > cap:
            print(f"FAIL: {row['sites']}-site churn over budget",
                  file=sys.stderr)
            ok = False
    return ok


def check_hotcold(report: dict, budget: dict) -> bool:
    """Hot/cold ratios, speedups and resident bytes of a
    ``BENCH_hotcold`` report against the ``hotcold`` budget."""
    mode = _mode(report)
    results = []

    def check(label, value, limit, passed):
        verdict = "ok" if passed else "FAIL"
        print(f"{label:>28s}: {value:,.2f} (budget {limit}) {verdict}")
        results.append(passed)

    ratio = report["p99_ratio"]
    cap = budget["edit_p99_ratio"][mode]
    check("edit p99 10x/1x ratio", ratio, f"<= {cap}", ratio <= cap)
    ratio = report["scattered"]["scattered_ratio"]
    cap = budget["scattered_ratio"][mode]
    check("scattered 16x/1x ratio", ratio, f"<= {cap}", ratio <= cap)
    sweep = report["sweep"]["sweep_speedup"]
    floor = budget["sweep_speedup"][mode]
    check("incremental sweep speedup", sweep, f">= {floor}",
          sweep >= floor)
    touch = report["cold_touch"][-1]["touch_speedup"]
    floor = budget["touch_speedup"][mode]
    check("partial-explode speedup", touch, f">= {floor}",
          touch >= floor)
    resident = report["hot_cold"][-1]["resident_bytes"]
    cap = budget["resident_bytes_10x"][mode]
    check("resident tree bytes (10x)", resident, f"<= {cap}",
          resident <= cap)
    return all(results)


def main(root: Path) -> int:
    budgets = load(root)
    # Both checks run (and print) even when the first fails.
    wire_ok = check_wire(load(root, "BENCH_network.json"), budgets["wire"])
    hotcold_ok = check_hotcold(load(root, "BENCH_hotcold.json"),
                               budgets["hotcold"])
    return 0 if wire_ok and hotcold_ok else 1
