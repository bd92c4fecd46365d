"""Array regions of the live mixed tree/array storage (section 4.2).

A quiescent subtree in canonical exploded form collapses into an
:class:`repro.core.node.ArrayLeaf` (zero per-atom metadata) and explodes
back, deterministically and locally, when a path lands inside it.
"""

from repro.core.flatten import find_collapsible
from repro.core.node import collect_leaf_slots
from repro.core.path import ROOT
from repro.core.treedoc import Treedoc
from repro.metrics.overhead import (
    ARRAY_SLOT_BYTES,
    NODE_RECORD_BYTES,
    measure_tree,
)


def _flattened_doc(n=40, tombstones=10):
    doc = Treedoc(site=1, mode="sdis")
    for i in range(n):
        doc.insert(i, f"line {i}")
    for _ in range(tombstones):
        doc.delete(3)
    doc.note_revision()
    doc.flatten_local(ROOT)
    return doc


def _collapse(doc):
    doc.note_revision()
    return doc.collapse_cold(min_age=1, min_atoms=2)


def _explode_all(doc):
    for leaf in doc.tree.array_leaves():
        leaf.explode()


class TestFindRegions:
    def test_flattened_document_is_one_region(self):
        doc = _flattened_doc()
        atoms, dead = collect_leaf_slots(doc.tree.root)
        assert atoms == doc.atoms() and len(atoms) == 30
        assert dead == 0
        # The root itself never collapses: the maximal collapsible
        # regions are its two canonical halves.
        regions = find_collapsible(doc.tree, {}, doc.revision + 1,
                                   min_age=1, min_atoms=2)
        assert [path.bits() for path, _, _, _ in regions] == [(0,), (1,)]
        assert sum(len(atoms) for _, _, atoms, _ in regions) == 29

    def test_active_document_has_no_regions_at_root(self):
        doc = Treedoc(site=1, mode="sdis")
        for i in range(20):
            doc.insert(i, i)
        doc.delete(5)
        # every atom is a mini-node (disambiguated), so nothing here is
        # in canonical form, tombstones tolerated or not
        assert collect_leaf_slots(doc.tree.root, 1, True) is None
        assert find_collapsible(doc.tree, {}, doc.revision + 1, min_age=1,
                                min_atoms=2, allow_tombstones=True) == []

    def test_mixed_document_finds_quiescent_subtrees(self):
        doc = _flattened_doc()
        doc.insert(3, "hot edit")  # creates a mini-node somewhere
        doc.note_revision()
        regions = find_collapsible(doc.tree, doc._touch_stamps,
                                   doc.revision, min_age=1, min_atoms=2)
        assert regions  # the untouched side remains an array region
        assert all(path != ROOT for path, _, _, _ in regions)
        assert collect_leaf_slots(doc.tree.root, 1, True) is None


class TestMixedStorage:
    def test_compact_and_read(self):
        doc = _flattened_doc()
        content = doc.atoms()
        assert len(_collapse(doc)) == 2
        assert doc.atoms() == content
        assert doc.array_leaf_count == 2
        doc.check()

    def test_storage_cost_drops_to_near_array(self):
        doc = _flattened_doc()
        _collapse(doc)
        stats = measure_tree(doc.tree, with_disk=False)
        pure, mixed = (stats.memory_overhead_bytes,
                       stats.mixed_memory_overhead_bytes)
        # A 30-atom flattened doc: tree form pays 26 B/node; array form
        # pays one pointer per atom plus a tiny header.
        assert pure >= 30 * NODE_RECORD_BYTES
        assert mixed <= 30 * ARRAY_SLOT_BYTES + 50
        assert mixed < pure / 4

    def test_explode_on_demand_restores_tree_editing(self):
        doc = _flattened_doc()
        _collapse(doc)
        explodes = doc.tree.explodes + doc.tree.partial_explodes
        # An edit touching the region explodes it first, implicitly.
        doc.insert(7, "after explode")
        assert doc.tree.explodes + doc.tree.partial_explodes > explodes
        assert doc.array_leaf_count < 2
        assert "after explode" in [str(a) for a in doc.atoms()]
        doc.check()

    def test_explode_is_deterministic_across_replicas(self):
        plain = _flattened_doc()
        a = _flattened_doc()
        b = _flattened_doc()
        for doc in (a, b):
            _collapse(doc)
            _explode_all(doc)
            assert doc.array_leaf_count == 0
        expected = [repr(p) for p in plain.posids()]
        assert [repr(p) for p in a.posids()] == expected
        assert [repr(p) for p in b.posids()] == expected

    def test_compact_idempotent(self):
        doc = _flattened_doc()
        assert len(_collapse(doc)) == 2
        assert _collapse(doc) == []
