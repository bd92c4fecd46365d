"""Seeded traces: deterministic per seed, never a failing edit."""

from itertools import islice

import pytest

from perfbench.workloads import (
    SITE_A,
    WORKLOADS,
    Cursors,
    apply_plain,
    base_text,
    replay_plain,
    steps,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_trace(name):
    workload = WORKLOADS[name]
    first = list(islice(steps(workload, 7, "writer1"), 500))
    second = list(islice(steps(workload, 7, "writer1"), 500))
    assert first == second
    assert base_text(workload, 7) == base_text(workload, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_or_stream_other_trace(name):
    workload = WORKLOADS[name]
    base = list(islice(steps(workload, 7, "writer1"), 200))
    assert list(islice(steps(workload, 8, "writer1"), 200)) != base
    assert list(islice(steps(workload, 7, "writer2"), 200)) != base
    assert base_text(workload, 8) != base_text(workload, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_base_text_has_the_configured_size(name):
    workload = WORKLOADS[name]
    assert len(base_text(workload, 3)) == workload.base_atoms


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_resolved_edits_are_always_valid(name):
    """Every resolved edit is in range and changes the document, even
    starting from an empty one."""
    workload = WORKLOADS[name]
    for initial in ([], list("ab")):
        document = list(initial)
        cursors = Cursors()
        for step in islice(steps(workload, 5, "writer1"), 3000):
            kind, index, arg = cursors.resolve(SITE_A, step, len(document))
            if kind == "insert":
                assert 0 <= index <= len(document) and arg
            else:
                assert 0 <= index < arg <= len(document)
            before = len(document)
            apply_plain(document, (kind, index, arg))
            assert len(document) != before


def test_replay_plain_follows_the_cursor():
    workload = WORKLOADS["typing"]
    trace = list(islice(steps(workload, 1, "writer1"), 300))
    document = replay_plain(list("hello world"), SITE_A, trace)
    again = replay_plain(list("hello world"), SITE_A, trace)
    assert document == again
    cursors = Cursors()
    manual = list("hello world")
    for step in trace:
        apply_plain(manual, cursors.resolve(SITE_A, step, len(manual)))
    assert manual == document


def test_backspace_and_typing_move_the_cursor():
    from perfbench.workloads import Step

    cursors = Cursors()
    assert cursors.resolve(1, Step(True, 2, "xy", 0.5), 10) == (
        "insert", 5, "xy")
    assert cursors.position[1] == 7
    assert cursors.resolve(1, Step(False, 3, "", None), 12) == (
        "delete", 4, 7)
    assert cursors.position[1] == 4
    # A backspace at the very start deletes forward instead.
    assert cursors.resolve(1, Step(False, 2, "", 0.0), 9) == (
        "delete", 0, 2)
    # Nothing to delete: the step types instead.
    assert cursors.resolve(1, Step(False, 2, "", None), 0)[0] == "insert"
