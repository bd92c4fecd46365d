"""explode / flatten (section 4.2, Algorithm 2) and the cold heuristic."""

import pytest

from repro.core.flatten import (
    ColdRegionFinder,
    explode,
    flatten_subtree,
    subtree_atoms,
)
from repro.core.node import build_exploded, explode_depth
from repro.core.path import PosID, ROOT
from repro.core.treedoc import Treedoc
from repro.errors import TreeError


class TestExplode:
    def test_depth_formula(self):
        # Capacity of a complete tree of depth d is 2^d - 1 (section 4.2).
        assert explode_depth(1) == 1
        assert explode_depth(3) == 2
        assert explode_depth(7) == 3
        assert explode_depth(8) == 4

    def test_contents_identical(self):
        atoms = [f"line{i}" for i in range(20)]
        tree = explode(atoms)
        assert tree.atoms() == atoms

    def test_paths_are_plain_bitstrings(self):
        tree = explode(list("abcdefg"))
        for posid in tree.posids():
            assert all(e.dis is None for e in posid)

    def test_balanced_depth(self):
        tree = explode(list(range(127)))
        assert tree.height == 6  # complete tree of depth 7 has 127 slots
        tree.check_invariants()

    def test_empty_array(self):
        tree = explode([])
        assert tree.atoms() == []
        assert tree.live_length == 0

    def test_deterministic(self):
        a = explode(list("hello world"))
        b = explode(list("hello world"))
        assert [repr(p) for p in a.posids()] == [repr(p) for p in b.posids()]


class TestFlatten:
    def _doc_with_tombstones(self):
        doc = Treedoc(site=1, mode="sdis")
        for i, c in enumerate("abcdefghij"):
            doc.insert(i, c)
        doc.delete(2)
        doc.delete(2)
        doc.delete(5)
        return doc

    def test_flatten_root_removes_tombstones(self):
        doc = self._doc_with_tombstones()
        assert doc.tree.id_length == 10
        doc.flatten_local(ROOT)
        assert doc.tree.id_length == len(doc) == 7
        assert doc.text() == "abefgij"
        doc.check()

    def test_flatten_shortens_identifiers(self):
        doc = self._doc_with_tombstones()
        before = max(p.size_bits for p in doc.posids())
        doc.flatten_local(ROOT)
        after = max(p.size_bits for p in doc.posids())
        assert after < before

    def test_flatten_preserves_content_and_order(self):
        doc = self._doc_with_tombstones()
        content = doc.text()
        doc.flatten_local(ROOT)
        assert doc.text() == content
        ids = doc.posids()
        assert ids == sorted(ids)

    def test_edit_after_flatten(self):
        doc = self._doc_with_tombstones()
        doc.flatten_local(ROOT)
        doc.insert(3, "X")
        doc.delete(0)
        assert doc.text() == "beXfgij"
        doc.check()

    def test_flatten_subtree_only_touches_region(self):
        doc = Treedoc(site=1, mode="sdis", balanced=True)
        for i in range(40):
            doc.insert(i, i)
        for _ in range(5):
            doc.delete(10)
        content = doc.atoms()
        # flatten the root's right subtree only
        region = PosID.from_bits([1])
        flatten_subtree(doc.tree, region)
        assert doc.atoms() == content
        doc.check()

    def test_subtree_flatten_propagates_counts_to_ancestors(self):
        # Regression: build_exploded rewrites the region's cached counts
        # before the recount, so the ancestor delta must be computed
        # against the *pre-surgery* values — otherwise the root's
        # id_count keeps counting collected tombstones and index lookups
        # go wrong.
        doc = Treedoc(site=1, mode="sdis", balanced=True)
        for i in range(40):
            doc.insert(i, i)
        for _ in range(8):
            doc.delete(20)
        assert doc.tree.id_length == 40
        flatten_subtree(doc.tree, PosID.from_bits([1]))
        assert doc.tree.id_length == 32  # tombstones under [1] collected
        assert doc.tree.live_length == 32
        # indexed access still agrees with a full scan
        assert [doc.atom_at(i) for i in range(len(doc))] == doc.atoms()
        doc.check()

    def test_flatten_region_must_be_plain(self):
        doc = self._doc_with_tombstones()
        with pytest.raises(TreeError):
            flatten_subtree(doc.tree, doc.posid_at(0))

    def test_flatten_missing_region(self):
        doc = self._doc_with_tombstones()
        with pytest.raises(TreeError):
            flatten_subtree(doc.tree, PosID.from_bits([0, 0, 0, 0, 0, 0]))

    def test_digest_mismatch_detected(self):
        doc = self._doc_with_tombstones()
        op = doc.make_flatten(ROOT)
        doc.insert(0, "sneaky concurrent edit")
        with pytest.raises(TreeError):
            doc.apply_flatten(op)

    def test_replicated_flatten_converges(self):
        source = self._doc_with_tombstones()
        ops = []
        replica = Treedoc(site=2, mode="sdis")
        # rebuild the same state at the replica through ops
        fresh = Treedoc(site=1, mode="sdis")
        for i, c in enumerate("abcdefghij"):
            ops.append(fresh.insert(i, c))
        for index in (2, 2, 5):
            ops.append(fresh.delete(index))
        replica.apply_all(ops)
        flatten_op = fresh.flatten_local(ROOT)
        replica.apply(flatten_op)
        assert replica.text() == fresh.text()
        assert replica.posids() == fresh.posids()
        replica.check()


class TestColdRegionHeuristic:
    def test_cold_region_found_after_idle_revisions(self):
        doc = Treedoc(site=1, mode="sdis")
        for i in range(30):
            doc.insert(i, i)
        doc.note_revision()
        # edit only near the end; the front goes cold
        doc.note_revision()
        doc.insert(29, "hot")
        op = doc.flatten_cold(min_age=1)
        assert op is not None
        doc.check()

    def test_no_cold_region_when_everything_hot(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert(0, "a")
        # revision 0, everything just touched
        assert doc.flatten_cold(min_age=1) is None

    def test_min_depth_limits_heuristic(self):
        doc = Treedoc(site=1, mode="sdis")
        for i in range(30):
            doc.insert(i, i)
        for _ in range(3):
            doc.note_revision()
        shallow = ColdRegionFinder(min_age=1, min_depth=1).find(
            doc.tree, doc._touch_stamps, doc.revision
        )
        deep = ColdRegionFinder(min_age=1, min_depth=3).find(
            doc.tree, doc._touch_stamps, doc.revision
        )
        assert shallow is not None
        if deep is not None:
            assert deep.depth >= 3

    def test_build_exploded_resets_subtree(self):
        doc = Treedoc(site=1, mode="sdis")
        for i in range(10):
            doc.insert(i, i)
        node = doc.tree.root
        build_exploded(node, ["x", "y", "z"])
        doc.tree.recount_subtree(doc.tree.root)
        assert subtree_atoms(node) == ["x", "y", "z"]
