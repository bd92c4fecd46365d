"""``python -m benchmarks check``: the budget gate over the checked-in
benchmark reports."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks import budgets

ROOT = Path(__file__).resolve().parent.parent
FILES = ("BENCH_network.json", "BENCH_hotcold.json", "BUDGETS.json")


@pytest.fixture
def reports(tmp_path):
    for name in FILES:
        shutil.copy(ROOT / name, tmp_path / name)
    return tmp_path


def _mode(root):
    report = json.loads((root / "BENCH_network.json").read_text())
    return "quick" if report["config"]["quick"] else "full"


def _edit(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def test_checked_in_reports_pass(capsys):
    assert budgets.main(ROOT) == 0
    out = capsys.readouterr().out
    assert "100 sites:" in out and "resident tree bytes (10x)" in out
    assert "replay:" in out


def test_wire_ceiling_below_measured_fails(reports, capsys):
    mode = _mode(reports)
    row = json.loads((reports / "BENCH_network.json").read_text())[
        "churn_scaling"][0]

    def lower(budgets):
        budgets["wire"]["churn_bytes_per_site"][mode][str(row["sites"])] = (
            int(row["wire_bytes_per_site"]) - 1)

    _edit(reports / "BUDGETS.json", lower)
    assert budgets.main(reports) == 1
    captured = capsys.readouterr()
    assert f"FAIL: {row['sites']}-site churn over budget" in captured.err
    # The hot/cold checks still ran and printed.
    assert "edit p99 10x/1x ratio" in captured.out


def test_replay_ceiling_below_measured_fails(reports, capsys):
    mode = _mode(reports)
    replay = json.loads((reports / "BENCH_network.json").read_text())[
        "replay"]
    per_message = (replay["wire_bytes_to_laggard"]
                   / replay["messages_to_laggard"])

    def lower(budgets):
        budgets["wire"]["replay_bytes_per_message"][mode] = (
            int(per_message) - 1)

    _edit(reports / "BUDGETS.json", lower)
    assert budgets.main(reports) == 1
    captured = capsys.readouterr()
    assert "FAIL: replay bytes per message over budget" in captured.err
    # The churn rows were still checked.
    assert "100 sites:" in captured.out


def test_hotcold_ceiling_below_measured_fails(reports, capsys):
    mode = _mode(reports)
    report = json.loads((reports / "BENCH_hotcold.json").read_text())
    resident = report["hot_cold"][-1]["resident_bytes"]

    def lower(budgets):
        budgets["hotcold"]["resident_bytes_10x"][mode] = resident - 1

    _edit(reports / "BUDGETS.json", lower)
    assert budgets.main(reports) == 1
    assert "resident tree bytes (10x)" in capsys.readouterr().out


def test_command_line_exit_status(reports):
    def lower(budgets):
        for ceilings in budgets["wire"]["churn_bytes_per_site"].values():
            for sites in ceilings:
                ceilings[sites] = 0

    _edit(reports / "BUDGETS.json", lower)
    result = subprocess.run(
        [sys.executable, "-m", "benchmarks", "check", "--root",
         str(reports)],
        cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 1
    assert "over budget" in result.stderr
