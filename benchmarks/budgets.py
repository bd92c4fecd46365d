"""Check the checked-in benchmark reports against their budgets::

    python -m benchmarks check [--root DIR]

Two budget files hold the ceilings and floors a report must stay
within, per run size (``quick`` or ``full``, read from the report's
own config):

- ``WIRE_BUDGET.json`` — per-site wire bytes of the churn-scaling run
  in ``BENCH_network.json``;
- ``HOTCOLD_BUDGET.json`` — the latency ratios, sweep and touch
  speedups and resident bytes in ``BENCH_hotcold.json``.

Every check prints one line; the exit status is 1 when any of them is
out of budget, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _load(root: Path, name: str) -> dict:
    return json.loads((root / name).read_text())


def _mode(report: dict) -> str:
    return "quick" if report["config"]["quick"] else "full"


def check_wire(root: Path) -> bool:
    """Per-site churn wire bytes against ``WIRE_BUDGET.json``."""
    report = _load(root, "BENCH_network.json")
    budget = _load(root, "WIRE_BUDGET.json")
    ceilings = budget["churn_bytes_per_site"][_mode(report)]
    ok = True
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


def check_hotcold(root: Path) -> bool:
    """Hot/cold ratios, speedups and resident bytes against
    ``HOTCOLD_BUDGET.json``."""
    report = _load(root, "BENCH_hotcold.json")
    budget = _load(root, "HOTCOLD_BUDGET.json")
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
    # Both checks run (and print) even when the first fails.
    wire_ok = check_wire(root)
    hotcold_ok = check_hotcold(root)
    return 0 if wire_ok and hotcold_ok else 1
