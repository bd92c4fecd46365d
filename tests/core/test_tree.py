"""Tree storage: materialization, counts, navigation, tombstones, GC."""

import pytest

from repro.core.disambiguator import Sdis, Udis
from repro.core.node import EMPTY, LIVE, TOMBSTONE, MiniNode, slot_posid
from repro.core.path import PathElement, PosID, ROOT
from repro.core.tree import TreedocTree, successor_slot
from repro.errors import MissingAtomError, TreeError


def pid(*elements) -> PosID:
    built = []
    for element in elements:
        if isinstance(element, tuple):
            built.append(PathElement(element[0], Sdis(element[1])))
        else:
            built.append(PathElement(element))
    return PosID(built)


@pytest.fixture
def tree() -> TreedocTree:
    return TreedocTree()


class TestMaterializeLookup:
    def test_round_trip(self, tree):
        for posid in (pid(1), pid(1, (0, 2)), pid(1, 0, (0, 3), (1, 4)),
                      pid(0, 1, 1)):
            slot = tree.materialize(posid)
            assert tree.lookup(posid) is slot
            assert slot_posid(slot) == posid

    def test_lookup_missing_is_none(self, tree):
        assert tree.lookup(pid(1, 0, 1)) is None
        tree.materialize(pid(1, 0))
        assert tree.lookup(pid(1, 0, 1)) is None
        assert tree.lookup(pid(1, (0, 9))) is None

    def test_materialize_recreates_shared_structure(self, tree):
        a = tree.materialize(pid(1, (0, 2)))
        b = tree.materialize(pid(1, (0, 3)))
        assert a is not b
        assert a.host is b.host  # mini-siblings share the position node

    def test_mini_and_major_routes_are_distinct_nodes(self, tree):
        # [.. (0:d) 1 ..] routes through the mini's child; [.. 0 1 ..]
        # through the major node's — different subtrees.
        via_mini = tree.materialize(pid(1, (0, 2), (1, 5)))
        via_major = tree.materialize(pid(1, 0, (1, 5)))
        assert via_mini is not via_major
        assert via_mini.host is not via_major.host

    def test_height_tracks_materialization(self, tree):
        assert tree.height == 0
        tree.materialize(pid(1, 0, 1, 0))
        assert tree.height == 4


class TestCountsAndIndexing:
    def test_counts_update_on_insert_and_delete(self, tree):
        tree.apply_insert(pid((1, 1)), "a")
        tree.apply_insert(pid(1, (1, 1)), "b")
        tree.apply_insert(pid(1, 1, (1, 1)), "c")
        assert tree.live_length == 3 and tree.id_length == 3
        tree.apply_delete(pid(1, (1, 1)), keep_tombstone=True)
        assert tree.live_length == 2 and tree.id_length == 3
        tree.apply_delete(pid(1, 1, (1, 1)), keep_tombstone=False)
        # "a" live, "b" tombstoned, "c" discarded.
        assert tree.live_length == 1 and tree.id_length == 2

    def test_live_slot_at_matches_document_order(self, tree):
        ids = [pid((1, 1)), pid(1, (0, 1)), pid(1, (1, 1))]
        for n, posid in enumerate(sorted(ids)):
            tree.apply_insert(posid, f"atom{n}")
        assert [tree.live_slot_at(i).atom for i in range(3)] == [
            "atom0", "atom1", "atom2"
        ]
        with pytest.raises(IndexError):
            tree.live_slot_at(3)

    def test_id_slot_at_includes_tombstones(self, tree):
        tree.apply_insert(pid((1, 1)), "a")
        tree.apply_insert(pid(1, (1, 1)), "b")
        tree.apply_delete(pid((1, 1)), keep_tombstone=True)
        assert tree.id_slot_at(0).state == TOMBSTONE
        assert tree.id_slot_at(1).atom == "b"
        with pytest.raises(IndexError):
            tree.id_slot_at(2)


class TestApplySemantics:
    def test_insert_duplicate_same_atom_is_idempotent(self, tree):
        tree.apply_insert(pid((1, 1)), "a")
        tree.apply_insert(pid((1, 1)), "a")
        assert tree.live_length == 1

    def test_insert_conflicting_atom_raises(self, tree):
        tree.apply_insert(pid((1, 1)), "a")
        with pytest.raises(TreeError):
            tree.apply_insert(pid((1, 1)), "b")

    def test_delete_is_idempotent(self, tree):
        tree.apply_insert(pid((1, 1)), "a")
        tree.apply_delete(pid((1, 1)), keep_tombstone=True)
        tree.apply_delete(pid((1, 1)), keep_tombstone=True)
        assert tree.live_length == 0 and tree.id_length == 1

    def test_delete_of_never_seen_id_is_noop(self, tree):
        tree.apply_delete(pid(1, (0, 9)), keep_tombstone=False)
        assert tree.id_length == 0

    def test_insert_at_tombstone_is_causality_violation(self, tree):
        tree.apply_insert(pid((1, 1)), "a")
        tree.apply_delete(pid((1, 1)), keep_tombstone=True)
        with pytest.raises(TreeError):
            tree.apply_insert(pid((1, 1)), "b")


class TestUdisDiscard:
    """Section 3.3.1: leaves are discarded at once, interior nodes when
    their descendants go, major nodes when everything goes."""

    def test_leaf_discard_prunes_structure(self, tree):
        tree.apply_insert(pid((1, 1)), "a")
        tree.apply_delete(pid((1, 1)), keep_tombstone=False)
        assert tree.root.right is None  # fully pruned
        assert tree.id_length == 0

    def test_interior_node_kept_while_descendants_live(self, tree):
        parent = PosID([PathElement(1, Udis(0, 1))])
        child = parent.child(1, Udis(1, 1))
        tree.apply_insert(parent, "p")
        tree.apply_insert(child, "c")
        tree.apply_delete(parent, keep_tombstone=False)
        # Parent's atom is gone but its mini-node survives as structure.
        assert tree.live_length == 1
        assert tree.lookup(parent) is not None
        assert tree.lookup(parent).state == EMPTY
        # Deleting the descendant cascades the discard.
        tree.apply_delete(child, keep_tombstone=False)
        assert tree.lookup(parent) is None
        assert tree.root.right is None

    def test_replay_insert_recreates_discarded_ancestors(self, tree):
        parent = PosID([PathElement(1, Udis(0, 1))])
        tree.apply_insert(parent, "p")
        tree.apply_delete(parent, keep_tombstone=False)
        late_child = parent.child(1, Udis(5, 2))
        tree.apply_insert(late_child, "x")  # re-creates empty ancestors
        assert tree.live_length == 1
        assert slot_posid(tree.live_slot_at(0)) == late_child


class TestNavigation:
    def test_successor_predecessor_cover_all_slots(self, tree):
        ids = [
            pid((0, 1)), pid(0, (1, 1)), pid((1, 1)), pid(1, (0, 1)),
            pid(1, (0, 2)), pid(1, (0, 2), (1, 3)), pid(1, 1, (0, 4)),
        ]
        for n, posid in enumerate(ids):
            tree.apply_insert(posid, n)
        walked = list(tree.iter_slots())
        # successor_slot chains identically to iter_slots
        chain = [tree.first_slot()]
        while True:
            nxt = successor_slot(chain[-1])
            if nxt is None:
                break
            chain.append(nxt)
        assert [id(s) for s in chain] == [id(s) for s in walked]

    def test_next_id_holder_skips_tombstoneless_empties(self, tree):
        tree.apply_insert(pid(1, 0, (0, 1)), "deep")
        tree.apply_insert(pid(1, (1, 2)), "later")
        first = tree.next_id_holder(None)
        assert first.atom == "deep"
        second = tree.next_id_holder(first)
        assert second.atom == "later"
        assert tree.next_id_holder(second) is None

    def test_gap_slots_between_neighbours(self, tree):
        tree.apply_insert(pid((1, 1)), "a")
        tree.apply_insert(pid(1, 1, (0, 1)), "b")
        a = tree.lookup(pid((1, 1)))
        b = tree.lookup(pid(1, 1, (0, 1)))
        between = list(tree.gap_slots(a, b))
        # the empty plain slots of nodes 1 and 11's left spine lie between
        assert all(s.state == EMPTY for s in between)
        assert between  # at least the plain slot of node 1


class TestInvariants:
    def test_check_invariants_passes_on_mixed_tree(self, tree):
        tree.apply_insert(pid((1, 1)), "a")
        tree.apply_insert(pid(1, (0, 1)), "b")
        tree.apply_insert(pid(1, (0, 2)), "c")
        tree.apply_delete(pid(1, (0, 1)), keep_tombstone=True)
        tree.check_invariants()

    def test_set_live_requires_empty(self, tree):
        slot = tree.materialize(pid((1, 1)))
        tree.set_live(slot, "a")
        with pytest.raises(TreeError):
            tree.set_live(slot, "b")

    def test_tombstone_requires_live(self, tree):
        slot = tree.materialize(pid((1, 1)))
        with pytest.raises(MissingAtomError):
            tree.make_tombstone(slot)
