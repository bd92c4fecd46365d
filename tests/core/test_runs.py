"""The shared run/segment codec: shapes, detection, state round trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.node import canonical_posids
from repro.core.ops import DeleteOp, InsertOp
from repro.core.path import LEFT, PathElement, PosID
from repro.core.runs import (
    AtomRun,
    AtomTable,
    CANONICAL,
    PREFIX,
    find_runs,
    iter_state_segments,
    load_state_segments,
    prefix_path_bits,
    prefix_posids,
    read_run_record,
    run_from_ops,
    write_run_record,
)
from repro.core.tree import TreedocTree
from repro.core.treedoc import Treedoc
from repro.errors import EncodingError, TreeError
from repro.util.bits import BitReader, BitWriter


BASE = (PathElement(1),)


class TestShapes:
    @given(st.integers(1, 200))
    def test_prefix_posids_match_single_generator(self, count):
        batched = prefix_posids(BASE, count)
        for index, posid in enumerate(batched):
            bits = prefix_path_bits(count, index)
            assert posid == PosID(BASE + tuple(PathElement(b) for b in bits))

    @given(st.integers(1, 200))
    def test_prefix_posids_are_ordered(self, count):
        posids = prefix_posids(BASE, count)
        assert all(a < b for a, b in zip(posids, posids[1:]))

    @given(st.integers(1, 64))
    def test_full_trees_make_shapes_agree(self, depth_pow):
        # A full complete tree (n = 2^d - 1) is both shapes at once.
        count = (1 << max(1, depth_pow.bit_length() % 6 or 1)) - 1
        assert canonical_posids(BASE, count) == prefix_posids(BASE, count)

    def test_prefix_matches_place_run_allocation(self):
        # The prefix generator must reproduce the allocator's grouped
        # layout exactly: that is what makes local bursts runs.
        for count in (4, 5, 7, 12, 31, 40):
            doc = Treedoc(site=3)
            batch = doc.insert_text(0, [f"a{i}" for i in range(count)])
            run = run_from_ops(batch.ops)
            assert run is not None, count
            assert run.shape == PREFIX
            assert [op.posid for op in run.insert_ops(3)] == [
                op.posid for op in batch.ops
            ]


class TestDetection:
    def test_udis_burst_detected_with_consecutive_counters(self):
        doc = Treedoc(site=7)
        batch = doc.insert_text(0, list("abcdefgh"))
        run = run_from_ops(batch.ops)
        assert run is not None
        assert run.dis == ("udis", 7, 0)
        assert run.atoms == tuple("abcdefgh")

    def test_sdis_burst_detected(self):
        doc = Treedoc(site=5, mode="sdis")
        batch = doc.insert_text(0, list("abcdefgh"))
        run = run_from_ops(batch.ops)
        assert run is not None
        assert run.dis == ("sdis", 5)

    def test_tampered_counter_rejected(self):
        doc = Treedoc(site=7)
        ops = list(doc.insert_text(0, list("abcdefgh")).ops)
        ops[3], ops[4] = ops[4], ops[3]  # out of document order
        assert run_from_ops(ops) is None

    def test_short_windows_not_runs(self):
        doc = Treedoc(site=7)
        batch = doc.insert_text(0, list("abc"))
        assert run_from_ops(batch.ops) is None  # below RUN_MIN_ATOMS

    def test_replace_range_segments(self):
        doc = Treedoc(site=7)
        doc.insert_text(0, list("0123456789"))
        batch = doc.replace_range(2, 5, list("REPLACED"))
        segments = find_runs(batch.ops, batch.origin)
        kinds = [type(s).__name__ for s in segments]
        # Three singleton deletes, then the insert burst as one run.
        assert kinds == ["DeleteOp", "DeleteOp", "DeleteOp", "AtomRun"]
        run = segments[-1]
        assert [op.posid for op in run.insert_ops(batch.origin)] == [
            op.posid for op in batch.ops[3:]
        ]

    def test_canonical_region_detected_from_expanded_ops(self):
        run = AtomRun(BASE, tuple("abcdefg"), CANONICAL, None)
        back = run_from_ops(run.insert_ops(1))
        assert back is not None
        assert back.posids() == run.posids()
        assert back.atoms == run.atoms


class TestRunRecord:
    def test_record_round_trip(self):
        table = AtomTable()
        first = table.add_run(["x", "y", "z"])
        writer = BitWriter()
        write_run_record(writer, 3, first)
        count, ref = read_run_record(BitReader(writer.getvalue(),
                                               writer.bit_length))
        assert (count, ref) == (3, first)
        assert table.get_run(ref, count) == ["x", "y", "z"]

    def test_out_of_bounds_rejected(self):
        table = AtomTable()
        table.add("only")
        with pytest.raises(EncodingError):
            table.get_run(0, 2)
        with pytest.raises(EncodingError):
            table.get(5)


class TestRunModel:
    def test_rejects_root_region_and_empty_atoms(self):
        with pytest.raises(TreeError):
            AtomRun((), ("a",))
        with pytest.raises(TreeError):
            AtomRun(BASE, ())

    def test_rejects_disambiguated_base_tail(self):
        from repro.core.disambiguator import Udis

        with pytest.raises(TreeError):
            AtomRun((PathElement(1, Udis(0, 1)),), ("a",))


def _harvest_and_load(doc):
    segments = iter_state_segments(doc.tree, doc.site)
    fresh = TreedocTree()
    load_state_segments(fresh, segments, keep_tombstones=doc.keeps_tombstones)
    return segments, fresh


class TestStateSegments:
    def test_collapsed_doc_round_trips_into_leaves(self):
        from repro.core.path import ROOT

        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, [f"l{i}" for i in range(64)])
        doc.note_revision()
        doc.flatten_local(ROOT)
        doc.collapse_cold(min_age=0, min_atoms=8)
        assert doc.array_leaf_count > 0
        segments, fresh = _harvest_and_load(doc)
        assert any(isinstance(s, AtomRun) for s in segments)
        assert fresh.atoms() == doc.tree.atoms()
        assert fresh.posids() == doc.tree.posids()
        assert sum(1 for e in fresh.iter_entries()
                   if type(e).__name__ == "ArrayLeaf") > 0
        fresh.check_invariants()

    def test_tombstones_survive_state_transfer(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, list("abcdefghij"))
        doc.delete_range(2, 5)
        segments, fresh = _harvest_and_load(doc)
        assert any(isinstance(s, DeleteOp) for s in segments)
        assert fresh.atoms() == doc.tree.atoms()
        assert fresh.id_length == doc.tree.id_length
        fresh.check_invariants()

    def test_tombstone_segment_refused_under_udis(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, list("abcdefghij"))
        doc.delete_range(2, 5)
        segments = iter_state_segments(doc.tree, doc.site)
        with pytest.raises(TreeError):
            load_state_segments(TreedocTree(), segments,
                                keep_tombstones=False)

    def test_load_requires_empty_tree(self):
        doc = Treedoc(site=1)
        doc.insert_text(0, list("abcd"))
        segments = iter_state_segments(doc.tree, doc.site)
        other = Treedoc(site=2)
        other.insert_text(0, list("x"))
        with pytest.raises(TreeError):
            load_state_segments(other.tree, segments, keep_tombstones=False)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_arbitrary_two_site_docs_round_trip(self, data):
        # Concurrent editing (mini-nodes), deletes (tombstones), local
        # flatten and collapse: the harvested segments must rebuild an
        # identifier-identical tree, whatever mixture results.
        a = Treedoc(site=1, mode="sdis")
        b = Treedoc(site=2, mode="sdis")
        script = data.draw(st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 999),
                      st.text("xyz", min_size=1, max_size=6)),
            min_size=1, max_size=12,
        ))
        for kind, where, text in script:
            editor, other = (a, b) if where % 2 else (b, a)
            index = where % (len(editor) + 1)
            if kind == 0 or len(editor) < 2:
                batch = editor.insert_text(index, list(text))
            elif kind == 1:
                end = min(len(editor), index + 2)
                start = min(index, end - 1)
                batch = editor.delete_range(start, end)
            else:
                end = min(len(editor), index + 2)
                start = min(index, end - 1)
                batch = editor.replace_range(start, end, list(text))
            other.apply_batch(batch)
        a.note_revision()
        a.collapse_cold(min_age=0, min_atoms=4)
        segments, fresh = _harvest_and_load(a)
        assert fresh.atoms() == a.tree.atoms()
        assert fresh.posids() == a.tree.posids()
        assert fresh.live_length == a.tree.live_length
        assert fresh.id_length == a.tree.id_length
        fresh.check_invariants()


class TestHuskGc:
    def test_explode_fully_detaches_the_husk(self):
        from repro.core.path import ROOT

        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, [f"l{i}" for i in range(32)])
        doc.note_revision()
        doc.flatten_local(ROOT)
        doc.collapse_cold(min_age=0, min_atoms=8)
        leaf = doc.tree.array_leaves()[0]
        leaf.explode()
        assert leaf.parent is None
        assert leaf.tree is None  # no backref: the husk cannot pin the tree
        with pytest.raises(TreeError):
            leaf.explode()

    def test_collapse_purges_stale_touch_stamps(self):
        # A *subtree* flatten stamps the rebuilt region root
        # (_touch_region); once that region goes cold and collapses,
        # the freed node's id() must leave the stamp table instead of
        # lingering forever.
        from repro.core.flatten import find_collapsible

        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, [f"l{i}" for i in range(64)])
        doc.note_revision()
        doc.note_revision()
        op = doc.flatten_cold(min_age=1, min_slots=8)
        assert op is not None
        doc.note_revision()
        doc.note_revision()
        regions = find_collapsible(doc.tree, doc._touch_stamps, doc.revision,
                                   min_age=1, min_atoms=8)
        assert regions
        freed_ids = {
            id(node) for _, root, _, _ in regions for node in root.iter_nodes()
        }
        assert freed_ids & set(doc._touch_stamps)
        doc.collapse_cold(min_age=1, min_atoms=8)
        assert not freed_ids & set(doc._touch_stamps)
        assert not freed_ids & set(doc._touch_seen)
