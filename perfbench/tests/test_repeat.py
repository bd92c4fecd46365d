"""Self-check: single-writer counts repeat exactly at a fixed seed.

Runs shrunken copies of the single-writer workloads twice through the
real harness (live daemons over loopback) and requires the byte counts
and the tree's explode/drop/splice counters to be identical — they
depend only on the seeded trace, never on timing. Every run also
passes the harness's own correctness gates (identical text and PosID
digest at both sites, plain-list replay, every edit visible).
"""

import asyncio

import pytest

from perfbench.harness import Run
from perfbench.workloads import WORKLOADS, scaled


def _counts(name, seed, workdir):
    run = Run(scaled(WORKLOADS[name], 0.25), seed, 3.0, workdir)

    async def execute():
        try:
            await run.execute()
        finally:
            await run.close()

    asyncio.run(execute())
    assert run.failed == 0
    counters = run.counters
    return {
        "wire_bytes": run.m.stream_wire_bytes,
        "wal_bytes": run.m.stream_wal_bytes,
        "state_bits_per_atom": counters["state_bits_per_atom"],
        "explodes": counters["explodes"],
        "partial_explodes": counters["partial_explodes"],
        "cache_drops": counters["cache_drops"],
        "cache_splices": counters["cache_splices"],
        "text": run.daemons[1].site.text(),
    }


@pytest.mark.parametrize("name", ["big-doc", "rejoin"])
def test_single_writer_counts_repeat(name, tmp_path):
    first = _counts(name, 3, tmp_path / "first")
    second = _counts(name, 3, tmp_path / "second")
    assert first == second
    assert first["wire_bytes"] > 0
