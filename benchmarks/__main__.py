"""Run every benchmark with one command::

    PYTHONPATH=src python -m benchmarks [--quick] [--skip-tables]

or check the checked-in reports against their budgets
(:mod:`benchmarks.budgets`)::

    python -m benchmarks check [--root DIR]

Runs the pytest-benchmark table/figure modules (timing disabled unless
pytest-benchmark is installed and ``--benchmark-only`` is passed down —
the single-pass mode still regenerates and prints the paper tables),
then the standalone read-path, mixed-storage, hot/cold, sync, network
and durability benchmarks, which write ``BENCH_read.json``,
``BENCH_storage.json``, ``BENCH_hotcold.json``, ``BENCH_sync.json``,
``BENCH_network.json`` and ``BENCH_durability.json``, and closes with
one summary whose every
number carries its unit (reads/s, seconds, bytes) — no raw result
dicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _summary(root: Path) -> str:
    """A units-labelled digest of the standalone benchmark reports."""
    lines = ["", "== benchmark summary (units: explicit per metric) =="]
    read_report = root / "BENCH_read.json"
    if read_report.exists():
        data = json.loads(read_report.read_text())
        for row in data.get("snapshot", []):
            lines.append(
                f"  read/snapshot   {row['crdt']:14s} "
                f"{row['reads_per_second']:>12,.0f} reads/s "
                f"({row['atoms']:,d} atoms)"
            )
        for row in data.get("replay", []):
            lines.append(
                f"  read/replay     {row['crdt']:14s} "
                f"{row['revisions_per_second']:>12,.1f} revs/s "
                f"({row['seconds'] * 1e3:,.0f} ms total)"
            )
    sync_report = root / "BENCH_sync.json"
    if sync_report.exists():
        data = json.loads(sync_report.read_text())
        frames = data["run_frames"]
        lines.append(
            f"  sync/run-frames catch-up       "
            f"{frames['wire_bytes']:>12,d} bytes "
            f"({frames['atoms']:,d} atoms, {frames['run_segments']} runs, "
            f"{frames['seconds'] * 1e3:,.0f} ms)"
        )
        lines.append(
            f"  sync/per-op v1 replay          "
            f"{data['per_op_v1']['wire_bytes']:>12,d} bytes "
            f"({data['bytes_ratio_v1']:.1f}x more wire, "
            f"{data['time_ratio_v1']:.1f}x slower)"
        )
    network_report = root / "BENCH_network.json"
    if network_report.exists():
        data = json.loads(network_report.read_text())
        replay = data["replay"]
        sync = data["anti_entropy"]
        lines.append(
            f"  network/replay catch-up        "
            f"{replay['wire_bytes_to_laggard']:>12,d} bytes "
            f"({replay['messages_to_laggard']:,d} messages)"
        )
        lines.append(
            f"  network/anti-entropy catch-up  "
            f"{sync['wire_bytes_to_joiner']:>12,d} bytes "
            f"({data['bytes_ratio']:.1f}x fewer, "
            f"{sync['loaded_leaves']} leaves loaded)"
        )
        faulty = data["anti_entropy_under_faults"]
        lines.append(
            f"  network/corruption handling    "
            f"{faulty['decode_rejections']:>12,d} frames rejected+retried "
            f"({faulty['corrupted_transmissions']} corrupted, "
            f"{faulty['dropped_transmissions']} dropped)"
        )
    storage_report = root / "BENCH_storage.json"
    if storage_report.exists():
        data = json.loads(storage_report.read_text())
        current = data["current"]
        lines.append(
            f"  storage/quiescent resident     "
            f"{current['resident_bytes']:>12,d} bytes "
            f"({current['collapsed_regions']} regions, "
            f"{current['atoms']:,d} atoms)"
        )
        baseline = data.get("pre_pr")
        if baseline:
            lines.append(
                f"  storage/pre-PR resident        "
                f"{baseline['resident_bytes']:>12,d} bytes "
                f"({data['resident_bytes_reduction']:.1f}x reduction)"
            )
        mechanics = data.get("mechanics")
        if mechanics:
            lines.append(
                f"  storage/collapse pass          "
                f"{mechanics['collapse_seconds'] * 1e9:>12,.0f} ns "
                f"({mechanics['array_leaves']} leaves)"
            )
            lines.append(
                f"  storage/explode all            "
                f"{mechanics['explode_seconds'] * 1e9:>12,.0f} ns"
            )
    hotcold_report = root / "BENCH_hotcold.json"
    if hotcold_report.exists():
        data = json.loads(hotcold_report.read_text())
        largest = data["hot_cold"][-1]
        lines.append(
            f"  hotcold/edit p99 at 10x cold   "
            f"{largest['p99_ns']:>12,.0f} ns "
            f"({data['p99_ratio']:.2f}x the 1x p99)"
        )
        scattered = data["scattered"]
        lines.append(
            f"  hotcold/scattered 16x/1x       "
            f"{scattered['scattered_ratio']:>12.2f} x "
            f"(worst of {len(scattered['ratios'])} columns)"
        )
        touch = data["cold_touch"][-1]
        lines.append(
            f"  hotcold/first interior touch   "
            f"{touch['first_touch_ns']:>12,.0f} ns "
            f"({touch['touch_speedup']:.1f}x vs wholesale explode)"
        )
        sweep = data["sweep"]
        lines.append(
            f"  hotcold/boundary sweep         "
            f"{sweep['incremental_seconds'] * 1e9:>12,.0f} ns "
            f"({sweep['sweep_speedup']:.1f}x vs full survey)"
        )
    server_report = root / "BENCH_server.json"
    if server_report.exists():
        data = json.loads(server_report.read_text())
        ingest = data["throughput"]
        overload = data["overload"]
        lines.append(
            f"  server/socket ingest           "
            f"{ingest['frames_per_second']:>12,.1f} frames/s "
            f"(p50 {ingest['apply_p50_ms']} ms, "
            f"p99 {ingest['apply_p99_ms']} ms apply)"
        )
        lines.append(
            f"  server/overload shedding       "
            f"{overload['shed_rate'] * 100:>11,.1f}% refused "
            f"({overload['declined_busy']} declined busy, "
            f"{overload['served']} served)"
        )
    durability_report = root / "BENCH_durability.json"
    if durability_report.exists():
        data = json.loads(durability_report.read_text())
        longest = data["recovery_scaling"][-1]
        lines.append(
            f"  durability/full-log recovery   "
            f"{longest['recovery_seconds']:>12,.2f} seconds "
            f"({longest['edits']:,d} edits, "
            f"{longest['wal_bytes']:,d} WAL bytes)"
        )
        bounded = [row for row in data["cadence_sweep"]
                   if row["checkpoint_every"] is not None]
        if bounded:
            best = min(bounded, key=lambda row: row["replayed_batches"])
            lines.append(
                f"  durability/checkpoint cadence  "
                f"{best['replayed_batches']:>12,d} batches replayed "
                f"(cadence {best['checkpoint_every']}, "
                f"{best['checkpoints_written']} checkpoints)"
            )
        overhead = data["wal_overhead"]
        lines.append(
            f"  durability/WAL overhead        "
            f"{overhead['facade']['bytes_per_edit']:>12,.1f} bytes/edit "
            f"({overhead['site']['bytes_per_record']:,.1f} bytes/envelope "
            f"at a site)"
        )
        rejoin = data["site_recovery"]
        lines.append(
            f"  durability/crash+rejoin        "
            f"{rejoin['restart_seconds'] * 1e3:>12,.1f} ms restart "
            f"({rejoin['recovered_events']} events replayed, "
            f"torn -{rejoin['torn_bytes_discarded']} bytes)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["check"]:
        from benchmarks import budgets

        parser = argparse.ArgumentParser(
            prog="python -m benchmarks check",
            description="check the benchmark reports against their budgets")
        parser.add_argument("--root", type=Path,
                            default=Path(__file__).resolve().parent.parent,
                            help="directory holding the BENCH_*.json "
                            "reports and *_BUDGET.json files")
        return budgets.main(parser.parse_args(argv[1:]).root)
    parser = argparse.ArgumentParser(description="run all benchmarks")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes for the standalone benchmarks")
    parser.add_argument("--skip-tables", action="store_true",
                        help="skip the pytest table/figure benchmarks")
    parser.add_argument("--baseline-src", default=None,
                        help="pre-PR src/ path for the before/after "
                        "read-path and storage comparisons")
    args = parser.parse_args(argv)
    here = Path(__file__).resolve().parent
    status = 0
    if not args.skip_tables:
        import pytest

        status = pytest.main([
            str(here), "-q",
            "-o", "python_files=bench_*.py",
            "-o", "python_functions=bench_*",
            "-p", "no:cacheprovider",
            "--benchmark-disable",
        ])
        if status:
            return int(status)
    from benchmarks import (
        bench_durability,
        bench_hotcold,
        bench_network,
        bench_read,
        bench_server,
        bench_storage,
        bench_sync,
    )

    shared_args = ["--quick"] if args.quick else []
    if args.baseline_src:
        shared_args += ["--baseline-src", args.baseline_src]
    status = bench_read.main(list(shared_args))
    if status:
        return status
    status = bench_storage.main(list(shared_args))
    if status:
        return status
    # bench_hotcold takes no baseline-src: its before/after numbers
    # (partial vs wholesale explode, incremental vs full sweep) compare
    # strategies of the current stack on identical states.
    status = bench_hotcold.main(["--quick"] if args.quick else [])
    if status:
        return status
    # bench_sync and bench_network take no baseline-src: they compare
    # wire strategies of the *current* stack (v1 vs v2 frames; replay
    # vs anti-entropy catch-up on the simulated network).
    status = bench_sync.main(["--quick"] if args.quick else [])
    if status:
        return status
    status = bench_network.main(["--quick"] if args.quick else [])
    if status:
        return status
    status = bench_durability.main(["--quick"] if args.quick else [])
    if status:
        return status
    # bench_server times a live asyncio daemon over a loopback socket;
    # no baseline-src — it benchmarks the current stack only.
    status = bench_server.main(["--quick"] if args.quick else [])
    if status:
        return status
    print(_summary(here.parent))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
