"""Span self-time arithmetic and the function wrapping behind it."""

import pytest

from perfbench.tracing import (
    Tracer,
    attribute,
    depths,
    layer_self_times,
    tail_shares,
)


def _attribute(spans, window):
    starts = [s for s, _, _ in spans]
    ends = [e for _, e, _ in spans]
    parents = [p for _, _, p in spans]
    return attribute(starts, ends, parents, window)


def test_depths_follow_parents():
    assert depths([-1, 0, 1, 0, -1]) == [0, 1, 2, 1, 0]


def test_nested_spans_self_time():
    # root [0,10] > child [2,5] > grandchild [3,4]; window [0,12]
    own, rest = _attribute([(0, 10, -1), (2, 5, 0), (3, 4, 1)], (0, 12))
    assert own == pytest.approx([7.0, 2.0, 1.0])
    assert rest == pytest.approx(2.0)
    assert sum(own) + rest == pytest.approx(12.0)


def test_sequential_children():
    own, rest = _attribute([(0, 10, -1), (1, 3, 0), (5, 9, 0)], (0, 10))
    assert own == pytest.approx([4.0, 2.0, 4.0])
    assert rest == 0.0


def test_overlapping_siblings_are_not_double_counted():
    # Two children overlap on [4,6]: the later-started one owns it.
    own, rest = _attribute([(0, 10, -1), (1, 6, 0), (4, 8, 0)], (0, 10))
    assert own == pytest.approx([3.0, 3.0, 4.0])
    assert sum(own) + rest == pytest.approx(10.0)


def test_overlapping_roots_and_gaps():
    own, rest = _attribute([(1, 5, -1), (3, 7, -1)], (0, 10))
    assert own == pytest.approx([2.0, 4.0])
    assert rest == pytest.approx(4.0)
    assert sum(own) + rest == pytest.approx(10.0)


def test_window_clips_spans():
    own, rest = _attribute([(0, 10, -1), (8, 12, 0)], (5, 11))
    assert own == pytest.approx([3.0, 3.0])
    assert rest == 0.0


def test_layer_totals():
    names = ["core.apply", "codec.decode_batch", "wire.decode", "core.read"]
    totals = layer_self_times(names, [1.0, 2.0, 3.0, 0.5])
    assert totals["core"] == 1.5
    assert totals["codec"] == 2.0
    assert totals["wire"] == 3.0
    assert totals["storage"] == 0.0


def test_tail_shares_follow_the_slowest_roots():
    # Ten edits of 1s (all core), one of 10s with a 6s codec child and a
    # 2s storage grandchild beneath it; a read span is not an edit. Of
    # eleven edits, the p99 (nearest rank) is the slowest alone.
    spans = [(float(i), i + 1.0, -1) for i in range(10)]
    spans += [(20.0, 30.0, -1), (21.0, 27.0, 10), (22.0, 24.0, 11),
              (40.0, 45.0, -1)]
    names = (["replication.edit"] * 11 + ["codec.encode_state",
             "storage.checkpoint", "core.read"])
    own, _ = _attribute(spans, (0.0, 50.0))
    starts, ends, parents = zip(*spans)
    shares = tail_shares(names, starts, ends, parents, own,
                         "replication.edit")
    assert shares["replication"] == pytest.approx(0.4)
    assert shares["codec"] == pytest.approx(0.4)
    assert shares["storage"] == pytest.approx(0.2)
    assert shares["core"] == 0.0
    assert sum(shares.values()) == pytest.approx(1.0)
    none = tail_shares(names, starts, ends, parents, own, "core.mint")
    assert set(none.values()) == {0.0}


def test_wrapped_calls_record_nested_spans():
    tracer = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("codec.inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer.wrap("core.outer", outer)
    assert wrapped_outer(1) == 4  # disabled: no spans
    assert tracer.names == []
    tracer.enabled = True
    assert wrapped_outer(1) == 4
    assert tracer.names == ["core.outer", "codec.inner"]
    assert tracer.parents == [-1, 0]
    assert tracer.starts[0] <= tracer.starts[1] <= tracer.ends[1] \
        <= tracer.ends[0]
    own, rest = attribute(tracer.starts, tracer.ends, tracer.parents,
                          (tracer.starts[0], tracer.ends[0]))
    assert sum(own) + rest == pytest.approx(tracer.ends[0]
                                            - tracer.starts[0])


def test_install_rebinds_imported_names_and_uninstall_restores():
    import repro.server.connection as connection
    import repro.server.framing as framing

    original = framing.encode_segment
    tracer = Tracer()
    tracer.install([("server.segment_encode",
                     "repro.server.framing:encode_segment")])
    try:
        assert connection.encode_segment is framing.encode_segment
        assert connection.encode_segment is not original
        tracer.enabled = True
        connection.encode_segment(b"payload")
        assert tracer.names == ["server.segment_encode"]
    finally:
        tracer.uninstall()
    assert framing.encode_segment is original
    assert connection.encode_segment is original


def test_edit_key_marks_the_root_span():
    tracer = Tracer()
    tracer.enabled = True
    root = tracer.begin("replication.deliver")
    child = tracer.begin("wire.decode")
    tracer.set_key(1, 42)
    tracer.end(child)
    tracer.end(root)
    assert tracer.root_key(child) == (1, 42)
    assert tracer.root_key(root) == (1, 42)
