"""Live mixed tree/array storage (section 4.2, DESIGN.md section 7).

Quiescent canonical regions collapse into zero-metadata array leaves in
the *live* tree; any path or index landing inside one explodes it back,
deterministically. These tests pin the three contracts that make the
optimization safe:

- **representation-blindness**: a collapsing replica and a
  non-collapsing replica driven by the same operations snapshot
  identically — atoms *and* identifiers — under arbitrary interleavings
  of local batches, remote batches, lockstep flattens, collapses and
  explodes (the hypothesis property, run over all four CRDT adapters
  via the ``maintain`` contract hook);
- **pure reads stay collapsed**: ``atoms``/``text``/``atom_at``/
  ``posid_at``/``posids`` never explode a region;
- **structure on demand**: edits, remote paths and slot walks explode
  exactly the touched region, and ``check_invariants`` validates leaf
  boundaries throughout.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LogootDoc, RgaDoc, TreedocAdapter, WootDoc
from repro.core import disk
from repro.core.flatten import find_collapsible
from repro.core.node import (
    LIVE,
    ArrayLeaf,
    PosNode,
    build_exploded,
    collect_leaf_slots,
    slot_posid,
)
from repro.core.path import ROOT
from repro.core.treedoc import Treedoc
from repro.errors import TreeError
from tests.core.test_node_layout import check_layout, legacy_disk_trees


def _quiescent_doc(n=64, mode="sdis", min_atoms=4):
    """A flattened, collapsed document: the §4.2 steady state."""
    doc = Treedoc(site=1, mode=mode)
    doc.insert_text(0, [f"line {i}" for i in range(n)])
    doc.note_revision()
    doc.flatten_local(ROOT)
    for _ in range(3):
        doc.note_revision()
    doc.collapse_cold(min_age=1, min_atoms=min_atoms)
    return doc


class TestCollapse:
    def test_flattened_document_collapses_to_leaves(self):
        doc = _quiescent_doc()
        assert doc.array_leaf_count >= 1
        # The resident tree shrank to a handful of position nodes.
        resident = sum(1 for _ in doc.tree.root.iter_nodes())
        assert resident < 8

    def test_collapse_preserves_content_counts_and_identifiers(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, [f"w{i}" for i in range(40)])
        doc.delete_range(10, 15)
        doc.note_revision()
        doc.flatten_local(ROOT)
        content = doc.atoms()
        posids = [repr(p) for p in doc.posids()]
        length = doc.tree.live_length
        ids = doc.tree.id_length
        doc.note_revision()
        doc.note_revision()
        assert doc.collapse_cold(min_age=1, min_atoms=2)
        assert doc.atoms() == content
        assert [repr(p) for p in doc.posids()] == posids
        assert doc.tree.live_length == length
        assert doc.tree.id_length == ids
        doc.check()

    def test_collapse_is_a_representation_change_only(self):
        # No generation bump: derived caches (text) stay warm.
        doc = _quiescent_doc(min_atoms=1000)  # nothing collapsed yet
        text = doc.text()
        generation = doc.generation
        doc.collapse_cold(min_age=1, min_atoms=2)
        assert doc.array_leaf_count >= 1
        assert doc.generation == generation
        assert doc.text() == text

    def test_hot_regions_do_not_collapse(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, [f"x{i}" for i in range(30)])
        doc.note_revision()
        doc.flatten_local(ROOT)
        # The region was just flattened (stamped this revision): still hot.
        assert doc.collapse_cold(min_age=2, min_atoms=2) == []
        assert doc.array_leaf_count == 0

    def test_non_canonical_regions_are_rejected(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, list("abcdef"))
        # Mini-node structure (every local insert is disambiguated):
        # nothing here is canonical.
        assert find_collapsible(doc.tree, {}, 10, min_age=1, min_atoms=2) == []
        with pytest.raises(TreeError):
            doc.tree.collapse_subtree(doc.tree.root.right)

    def test_collapse_root_rejected(self):
        doc = _quiescent_doc(min_atoms=10_000)
        with pytest.raises(TreeError):
            doc.tree.collapse_subtree(doc.tree.root)

    def test_adjacent_leaves_merge_on_a_later_collapse(self):
        doc = _quiescent_doc(n=31, min_atoms=4)
        # The root's child subtrees collapsed; the root region as a
        # whole is still canonical, but rooted at ROOT (never
        # collapsed). Verify leaves count as canonical substructure.
        for leaf in doc.tree.array_leaves():
            assert collect_leaf_slots(leaf) == (leaf.atoms, 0)

    def test_auto_collapse_at_revision_boundaries(self):
        doc = Treedoc(site=1, mode="sdis", collapse_every=2,
                      collapse_min_age=1, collapse_min_atoms=4)
        doc.insert_text(0, [f"line {i}" for i in range(32)])
        doc.note_revision()
        doc.flatten_local(ROOT)
        assert doc.array_leaf_count == 0
        doc.note_revision()
        doc.note_revision()
        assert doc.array_leaf_count >= 1
        doc.check()


class TestPureReadsStayCollapsed:
    def test_reads_do_not_explode(self):
        doc = _quiescent_doc()
        # Same history without collapsing: the slot walk is the reference.
        walk = list(_quiescent_doc(min_atoms=10_000).tree.iter_live_slots())
        content = [slot.atom for slot in walk]
        posids = [slot_posid(slot) for slot in walk]
        leaves = doc.tree.array_leaves()
        assert leaves
        assert doc.atoms() == content
        assert doc.text() == "".join(content)
        assert doc.posids() == posids
        for index in range(len(content)):
            assert doc.atom_at(index) == content[index]
            assert doc.posid_at(index) == posids[index]
        after = doc.tree.array_leaves()  # nothing exploded
        assert len(after) == len(leaves)
        assert all(a is b for a, b in zip(after, leaves))
        # Slot reads explode only what they land in, and agree too.
        for index in (0, 5, len(content) // 2, len(content) - 1):
            slot = doc.tree.live_slot_at(index)
            assert (slot.atom, slot_posid(slot)) == (
                content[index], posids[index])
        middle = len(content) // 2
        sliced = doc.tree.live_slice(middle - 3, middle + 3)
        assert [slot.atom for slot in sliced] == content[middle - 3:middle + 3]
        doc.check()

    def test_cache_holds_leaves_as_single_entries(self):
        # The descent treats a collapsed region as one entry: it stops
        # there and answers with the offset inside it.
        doc = _quiescent_doc()
        entries = list(doc.tree.iter_entries())
        leaves = [e for e in entries if isinstance(e, ArrayLeaf)]
        assert leaves
        assert len(entries) < doc.tree.live_length  # slices, not slots
        index = 0
        for entry in entries:
            if isinstance(entry, ArrayLeaf):
                for offset in (0, entry.live_count - 1):
                    assert doc.tree.locate(index + offset) == (entry, offset)
                index += entry.live_count
            elif entry.state == LIVE:
                assert doc.tree.locate(index) == (entry, 0)
                index += 1
        assert doc.tree.array_leaves() == leaves

    def test_posids_match_exploded_form(self):
        collapsed = _quiescent_doc()
        exploded = _quiescent_doc(min_atoms=10_000)  # identical, no leaves
        assert collapsed.array_leaf_count > 0
        assert exploded.array_leaf_count == 0
        assert [repr(p) for p in collapsed.posids()] == [
            repr(p) for p in exploded.posids()
        ]


class TestExplodeOnTouch:
    def test_local_insert_explodes_only_the_touched_region(self):
        # 63 atoms: the canonical root splits 31 | 31, so two leaves.
        doc = _quiescent_doc(n=63)
        leaves = doc.array_leaf_count
        assert leaves >= 2
        content = doc.atoms()
        doc.insert(1, "HOT")
        content.insert(1, "HOT")
        assert doc.atoms() == content
        assert doc.array_leaf_count == leaves - 1
        doc.check()

    def test_local_delete_range_explodes_overlapping_regions(self):
        doc = _quiescent_doc(n=64)
        content = doc.atoms()
        doc.delete_range(2, 6)
        del content[2:6]
        assert doc.atoms() == content
        doc.check()

    def test_remote_path_into_region_explodes_and_converges(self):
        a = Treedoc(site=1, mode="udis")
        b = Treedoc(site=2, mode="udis")
        b.apply_batch(a.insert_text(0, [f"s{i}" for i in range(32)]))
        op = a.make_flatten(ROOT)
        a.apply_flatten(op)
        b.apply_flatten(op)
        for _ in range(3):
            a.note_revision()
        a.collapse_cold(min_age=1, min_atoms=4)
        assert a.array_leaf_count >= 1
        # b edits inside what a holds as an array; a replays the batch.
        batch = b.insert_text(7, list("XYZ"))
        a.apply_batch(batch)
        assert a.atoms() == b.atoms()
        assert [repr(p) for p in a.posids()] == [repr(p) for p in b.posids()]
        a.check()
        b.check()

    def test_remote_delete_inside_region(self):
        a = Treedoc(site=1, mode="sdis")
        b = Treedoc(site=2, mode="sdis")
        b.apply_batch(a.insert_text(0, [f"s{i}" for i in range(16)]))
        op = a.make_flatten(ROOT)
        a.apply_flatten(op)
        b.apply_flatten(op)
        a.note_revision()
        a.note_revision()
        a.collapse_cold(min_age=1, min_atoms=2)
        assert a.array_leaf_count >= 1
        batch = b.delete_range(3, 8)
        a.apply_batch(batch)
        assert a.atoms() == b.atoms()
        a.check()

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 4095])
    @pytest.mark.parametrize("mode", ["udis", "sdis"])
    def test_explode_is_exact_inverse_of_collapse(self, mode, n):
        # The canonical builder and harvester are each other's inverse,
        # dead-slot bitmaps included: under SDIS every third atom is
        # deleted after the flatten and before the collapse, so the
        # leaves carry tombstones.
        doc = Treedoc(site=1, mode=mode)
        doc.insert_text(0, [f"line {i}" for i in range(n)])
        doc.note_revision()
        doc.flatten_local(ROOT)
        expected_dead = 0
        if mode == "sdis":
            for offset in reversed(range(1, n, 3)):
                doc.delete(offset)
                expected_dead |= 1 << offset
        atoms, dead = collect_leaf_slots(doc.tree.root, 1, True)
        assert len(atoms) == n and dead == expected_dead
        assert all((atoms[offset] is None) == bool((dead >> offset) & 1)
                   for offset in range(n))
        rebuilt = PosNode()
        build_exploded(rebuilt, atoms, dead)
        assert collect_leaf_slots(rebuilt, 1, True) == (atoms, dead)
        assert (rebuilt.live_count, rebuilt.id_count) == (
            doc.tree.root.live_count, doc.tree.root.id_count)

        posids = [repr(p) for p in doc.posids()]
        content = doc.atoms()
        doc.note_revision()
        doc.collapse_cold(min_age=1, min_atoms=1)
        check_layout(doc.tree)
        leaves = doc.tree.array_leaves()
        if mode == "sdis" and n >= 7:
            assert any(leaf.dead for leaf in leaves)
        for leaf in leaves:
            harvest = (list(leaf.atoms), leaf.dead)
            node = doc.tree.explode_leaf(leaf)
            assert collect_leaf_slots(node, 1, True) == harvest
        assert doc.array_leaf_count == 0
        assert doc.atoms() == content
        assert [repr(p) for p in doc.posids()] == posids
        check_layout(doc.tree)
        doc.check()

    def test_double_explode_is_loud(self):
        doc = _quiescent_doc()
        leaf = doc.tree.array_leaves()[0]
        doc.tree.explode_leaf(leaf)
        with pytest.raises(TreeError):
            doc.tree.explode_leaf(leaf)

    def test_live_slots_explodes_even_with_cache_disabled(self):
        # Regression (from when reads could bypass a snapshot cache):
        # live_slots must not crash on a collapsed tree — it promises
        # real slots, so it explodes first.
        doc = _quiescent_doc()
        slots = doc.tree.live_slots()
        assert [s.atom for s in slots] == doc.atoms()
        assert doc.array_leaf_count == 0
        doc.check()

    def test_live_slice_out_of_range_is_empty_and_side_effect_free(self):
        # Regression: an out-of-range start on a collapsed tree must
        # keep slice semantics (empty result) and must not explode.
        doc = _quiescent_doc()
        leaves = doc.array_leaf_count
        total = len(doc)
        assert doc.tree.live_slice(total + 5, total + 7) == []
        assert doc.tree.live_slice(3, 3) == []
        assert doc.array_leaf_count == leaves

    def test_live_slot_at_explodes_but_atom_at_does_not(self):
        doc = _quiescent_doc()
        leaves = doc.array_leaf_count
        doc.atom_at(3)
        assert doc.array_leaf_count == leaves
        doc.tree.live_slot_at(3)
        assert doc.array_leaf_count == leaves - 1
        doc.check()


class TestDiskRoundTripWithLeaves:
    def _mixed_doc(self):
        """Minis and array leaves together in one tree."""
        a = Treedoc(site=1, mode="sdis")
        b = Treedoc(site=2, mode="sdis")
        b.apply_batch(a.insert_text(0, [f"line {i}" for i in range(48)]))
        op = a.make_flatten(ROOT)
        a.apply_flatten(op)
        b.apply_flatten(op)
        for _ in range(3):
            a.note_revision()
        a.collapse_cold(min_age=1, min_atoms=4)
        # Concurrent inserts at one position: mini-node siblings next to
        # the remaining collapsed regions.
        op_a = a.insert(2, "A")
        op_b = b.insert(2, "B")
        a.apply(op_b)
        b.apply(op_a)
        assert a.array_leaf_count >= 1
        return a

    def test_round_trip_preserves_leaves_without_exploding(self):
        doc = self._mixed_doc()
        image = disk.save(doc.tree)
        assert image.version == disk.FORMAT_VERSION
        loaded = disk.load(image)
        assert loaded.atoms() == doc.atoms()
        assert [repr(p) for p in loaded.posids()] == [
            repr(p) for p in doc.posids()
        ]
        assert len(loaded.array_leaves()) == doc.array_leaf_count
        loaded.check_invariants()

    def test_v1_image_of_a_plain_tree_still_loads(self):
        # No v1 writer exists: the checked-in image (a plain SDIS tree
        # with mini-nodes and tombstones) loads, and saving it again
        # writes the current format.
        (plain,) = [tree for tree in legacy_disk_trees()
                    if not tree.array_leaves()]
        assert "".join(plain.atoms()) == "d legacy plain tree v1"
        assert plain.id_length > len(plain.atoms())
        plain.check_invariants()
        image = disk.save(plain)
        assert image.version == disk.FORMAT_VERSION
        assert disk.load(image).posids() == plain.posids()

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_save_load_snapshot_identity_any_history(self, seed):
        rng = random.Random(seed)
        doc = Treedoc(site=1, mode="sdis")
        for step in range(40):
            if len(doc) and rng.random() < 0.3:
                start = rng.randrange(len(doc))
                doc.delete_range(start, min(len(doc), start + 3))
            else:
                index = rng.randint(0, len(doc))
                doc.insert_text(index, [f"a{step}.{k}"
                                        for k in range(rng.randint(1, 4))])
        doc.note_revision()
        doc.flatten_local(ROOT)
        for _ in range(rng.randint(0, 3)):
            doc.note_revision()
        doc.collapse_cold(min_age=1, min_atoms=rng.choice([2, 4, 8]))
        image = disk.save(doc.tree)
        loaded = disk.load(image)
        assert loaded.atoms() == doc.atoms()
        assert [repr(p) for p in loaded.posids()] == [
            repr(p) for p in doc.posids()
        ]
        assert len(loaded.array_leaves()) == doc.array_leaf_count
        loaded.check_invariants()
        # Index reads descend the loaded counts.
        assert [loaded.live_atom_at(i) for i in range(loaded.live_length)] \
            == loaded.atoms()
        loaded.check_invariants()


FACTORIES = {
    "treedoc-udis": lambda site: TreedocAdapter(site, mode="udis"),
    "treedoc-sdis": lambda site: TreedocAdapter(site, mode="sdis"),
    "logoot": lambda site: LogootDoc(site, seed=7),
    "woot": WootDoc,
    "rga": RgaDoc,
}

# One step of the mixed-storage interleaving.
_step = st.tuples(
    st.sampled_from(
        ["insert", "delete", "flatten", "collapse", "explode", "read"]
    ),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=5),
)


class TestMixedStorageConvergenceProperty:
    """The acceptance property: under arbitrary local/remote/flatten/
    collapse/explode interleavings, a replica with live mixed storage
    converges to the identical snapshot as one with collapsing
    disabled, over every CRDT adapter (collapse/explode are no-ops for
    the baselines via the ``maintain`` contract default)."""

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @given(steps=st.lists(_step, min_size=1, max_size=25))
    @settings(max_examples=12, deadline=None)
    def test_collapsing_replica_matches_plain_replica(self, name, steps):
        make = FACTORIES[name]
        mixed, plain = make(1), make(2)
        is_treedoc = isinstance(mixed, TreedocAdapter)
        tag = 0
        for kind, position, payload in steps:
            if kind == "insert":
                index = position % (len(mixed) + 1)
                atoms = [f"a{tag}.{k}" for k in range(payload)]
                tag += 1
                batch = mixed.insert_text(index, atoms)
                plain.apply_batch(batch)
            elif kind == "delete":
                if len(mixed):
                    start = position % len(mixed)
                    end = min(len(mixed), start + payload)
                    batch = mixed.delete_range(start, end)
                    plain.apply_batch(batch)
            elif kind == "flatten" and is_treedoc:
                # Structural clean-up commits in causal lockstep (the
                # commitment protocol guarantees exactly this window).
                op = mixed.doc.make_flatten(ROOT)
                mixed.doc.apply_flatten(op)
                plain.doc.apply_flatten(op)
            elif kind == "collapse":
                # Purely local on ONE replica: the other never collapses.
                mixed.maintain()
            elif kind == "explode" and is_treedoc:
                leaves = mixed.doc.tree.array_leaves()
                if leaves:
                    leaves[position % len(leaves)].explode()
            elif kind == "read":
                assert mixed.atoms() == plain.atoms()
            assert mixed.atoms() == plain.atoms(), kind
        assert mixed.atoms() == plain.atoms()
        if is_treedoc:
            # Identifier-level identity, not just content identity: the
            # mixed replica's implied canonical paths equal the plain
            # replica's materialized ones.
            assert [repr(p) for p in mixed.doc.posids()] == [
                repr(p) for p in plain.doc.posids()
            ]
            assert [mixed.doc.atom_at(i) for i in range(len(mixed.doc))] \
                == mixed.doc.atoms()
            mixed.doc.check()
            plain.doc.check()

    @given(steps=st.lists(_step, min_size=1, max_size=20),
           mode=st.sampled_from(["udis", "sdis"]))
    @settings(max_examples=15, deadline=None)
    def test_concurrent_sites_with_one_collapsing(self, steps, mode):
        """Two *concurrently editing* sites, one collapsing: every
        exchange round converges, with remote batches resolving into
        collapsed regions on the mixed side."""
        mixed = Treedoc(site=1, mode=mode)
        peer = Treedoc(site=2, mode=mode)
        tag = 0
        for kind, position, payload in steps:
            if kind == "insert":
                index = position % (len(peer) + 1)
                atoms = [f"p{tag}.{k}" for k in range(payload)]
                tag += 1
                mixed.apply_batch(peer.insert_text(index, atoms))
            elif kind == "delete":
                if len(peer):
                    start = position % len(peer)
                    batch = peer.delete_range(
                        start, min(len(peer), start + payload)
                    )
                    mixed.apply_batch(batch)
            elif kind == "flatten":
                op = peer.make_flatten(ROOT)
                peer.apply_flatten(op)
                mixed.apply_flatten(op)
            elif kind == "collapse":
                mixed.note_revision()
                mixed.collapse_cold(min_age=1, min_atoms=2)
            elif kind == "explode":
                leaves = mixed.tree.array_leaves()
                if leaves:
                    leaves[position % len(leaves)].explode()
            elif kind == "read":
                index = position % (len(mixed) + 1)
                atoms = [f"m{tag}"]
                tag += 1
                peer.apply_batch(mixed.insert_text(index, atoms))
            assert mixed.atoms() == peer.atoms(), kind
        assert [repr(p) for p in mixed.posids()] == [
            repr(p) for p in peer.posids()
        ]
        mixed.check()
        peer.check()
