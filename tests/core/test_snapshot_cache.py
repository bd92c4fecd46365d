"""Index identity: the counted descent never lies.

Every index resolves by one descent over the subtree counts (DESIGN.md
section 6). These properties pin ``atom_at``, ``posid_at``,
``live_slot_at``, ``live_slice`` and ``posids()`` to the ground truth —
an ``iter_live_slots()`` infix walk, or an entry walk where collapsed
regions are present — after every step of arbitrary interleavings of
local batches, remote batches, flatten/explode, tombstone purge and
``recount_subtree``, and check that the pure reads leave collapsed
regions collapsed. A second suite checks snapshot identity over all
four CRDTs, and a third drives localized single-slot edits against a
list model.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LogootDoc, RgaDoc, TreedocAdapter, WootDoc
from repro.core.flatten import explode
from repro.core.node import (
    LIVE,
    TOMBSTONE,
    ArrayLeaf,
    iter_subtree_entries,
    slot_posid,
)
from repro.core.path import ROOT
from repro.core.treedoc import Treedoc


def fresh_walk_atoms(tree):
    """Ground truth: the visible atoms by a fresh infix walk."""
    return [slot.atom for slot in tree.iter_live_slots()]


def reference_reads(tree):
    """Visible atoms and PosIDs by an entry walk that never explodes:
    slots derive their own paths, leaves list their canonical ones."""
    atoms, posids = [], []
    for entry in iter_subtree_entries(tree.root):
        if isinstance(entry, ArrayLeaf):
            atoms.extend(entry.live_atoms())
            posids.extend(entry.posids())
        elif entry.state == LIVE:
            atoms.append(entry.atom)
            posids.append(slot_posid(entry))
    return atoms, posids


def assert_index_identity(doc: Treedoc) -> None:
    """Every index read agrees with a fresh walk. Pure reads are checked
    first and must leave the collapsed regions untouched; slot reads
    (which may explode) are checked against ``iter_live_slots()``."""
    tree = doc.tree
    leaves = tree.array_leaves()
    atoms, posids = reference_reads(tree)
    assert len(doc) == len(atoms)
    assert doc.atoms() == atoms
    assert tree.posids() == posids
    assert [doc.atom_at(i) for i in range(len(atoms))] == atoms
    assert [doc.posid_at(i) for i in range(len(atoms))] == posids
    after = tree.array_leaves()
    assert len(after) == len(leaves)
    assert all(a is b for a, b in zip(after, leaves))
    # Slot reads: live_slot_at explodes what it lands in, then the
    # whole tree is slots and the plain walk is the reference.
    for index in range(len(atoms)):
        slot = tree.live_slot_at(index)
        assert slot.atom == atoms[index]
        assert slot_posid(slot) == posids[index]
    for leaf in tree.array_leaves():
        leaf.explode()
    walk = list(tree.iter_live_slots())
    assert [slot.atom for slot in walk] == atoms
    for index, slot in enumerate(walk):
        assert tree.live_slot_at(index) is slot
        assert tree.live_rank(slot) == index
    middle = len(walk) // 2
    for start, end in ((0, len(walk)), (middle, middle + 3), (1, 1)):
        sliced = tree.live_slice(start, end)
        assert len(sliced) == len(walk[start:end])
        assert all(a is b for a, b in zip(sliced, walk[start:end]))
    doc.check()


def assert_pure_reads(doc: Treedoc) -> None:
    """The non-exploding half of :func:`assert_index_identity`, for
    checks between steps that must not change the representation."""
    tree = doc.tree
    leaves = tree.array_leaves()
    atoms, posids = reference_reads(tree)
    assert doc.atoms() == atoms
    assert tree.posids() == posids
    assert [doc.atom_at(i) for i in range(len(atoms))] == atoms
    assert [doc.posid_at(i) for i in range(len(atoms))] == posids
    after = tree.array_leaves()
    assert len(after) == len(leaves)
    assert all(a is b for a, b in zip(after, leaves))


# One step of the interleaving: (kind, position seed, payload seed).
_step = st.tuples(
    st.sampled_from(
        ["local_insert", "local_delete", "remote_batch", "flatten",
         "purge", "recount", "read", "collapse", "leaf_explode"]
    ),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
)


class TestCachedSnapshotIdentity:
    """Interleavings of every representation change, with the index
    reads checked against the walks after each step."""

    @pytest.mark.parametrize("mode", ["udis", "sdis"])
    @given(steps=st.lists(_step, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_interleavings_match_fresh_walk(self, mode, steps):
        # Three replicas in causal lockstep (the commitment protocol
        # guarantees exactly this around a flatten): ``doc`` edits
        # locally, ``peer`` mints the remote batches, ``mirror`` only
        # ever replays — so doc exercises the local edit paths and
        # collapsed storage, peer the mixed paths, and mirror the pure
        # apply_batch path.
        doc = Treedoc(site=1, mode=mode)
        mirror = Treedoc(site=2, mode=mode)
        peer = Treedoc(site=3, mode=mode)
        tag = 0
        for kind, position, payload in steps:
            if kind == "local_insert":
                index = position % (len(doc) + 1)
                atoms = [f"a{tag}.{k}" for k in range(payload)]
                tag += 1
                batch = doc.insert_text(index, atoms)
                mirror.apply_batch(batch)
                peer.apply_batch(batch)
            elif kind == "local_delete":
                if len(doc):
                    start = position % len(doc)
                    end = min(len(doc), start + payload)
                    batch = doc.delete_range(start, end)
                    mirror.apply_batch(batch)
                    peer.apply_batch(batch)
            elif kind == "remote_batch":
                # A batch minted elsewhere, replayed through apply_batch.
                index = position % (len(peer) + 1)
                atoms = [f"p{tag}.{k}" for k in range(payload)]
                tag += 1
                batch = peer.insert_text(index, atoms)
                doc.apply_batch(batch)
                mirror.apply_batch(batch)
            elif kind == "flatten":
                # Whole-document flatten, committed on every replica.
                op = doc.make_flatten(ROOT)
                doc.apply_flatten(op)
                mirror.apply_flatten(op)
                peer.apply_flatten(op)
            elif kind == "purge":
                # A collapse step may have left array leaves, which the
                # slot walk refuses; their dead slots have no slot to
                # purge, so pick among the tree-resident tombstones.
                tombstones = [
                    entry for entry in iter_subtree_entries(doc.tree.root)
                    if not isinstance(entry, ArrayLeaf)
                    and entry.state == TOMBSTONE
                ]
                if tombstones:
                    target = tombstones[position % len(tombstones)]
                    posid = slot_posid(target)
                    doc.tree.purge_tombstone(target)
                    # Purge is sound only once causally stable — model
                    # that by purging the same identifier everywhere.
                    for other in (mirror, peer):
                        other_slot = other.tree.lookup(posid)
                        if other_slot is not None and (
                            other_slot.state == TOMBSTONE
                        ):
                            other.tree.purge_tombstone(other_slot)
            elif kind == "recount":
                doc.tree.recount_subtree(doc.tree.root)
            elif kind == "collapse":
                # Purely local representation change: the descent stops
                # at the new leaves and reads answer from their arrays.
                doc.note_revision()
                doc.collapse_cold(min_age=1, min_atoms=2)
            elif kind == "leaf_explode":
                leaves = doc.tree.array_leaves()
                if leaves:
                    leaves[position % len(leaves)].explode()
            elif kind == "read":
                # A slot read lands in (and explodes) at most the
                # region covering the index.
                if len(doc):
                    index = position % len(doc)
                    expected = doc.atom_at(index)
                    assert doc.tree.live_slot_at(index).atom == expected
            # After every step: doc keeps its collapsed regions through
            # the pure reads; the mirror never collapses, so its slot
            # reads are checked against the plain walk each time.
            assert_pure_reads(doc)
            assert_index_identity(mirror)
        assert_index_identity(doc)
        # The mirror applied every batch remotely: same visible content.
        assert mirror.atoms() == doc.atoms()

    @pytest.mark.parametrize("mode", ["udis", "sdis"])
    def test_batch_inserting_then_deleting_same_identifier(self, mode):
        # A merged batch can insert an atom and delete that same
        # identifier: at flush time every added slot is dead again and
        # the splice must degrade to a no-op, not crash.
        source = Treedoc(site=1, mode=mode)
        receiver = Treedoc(site=2, mode=mode)
        b1 = source.insert_text(0, ["x"])
        b2 = source.delete_range(0, 1)
        receiver.apply_batch(b1.merge(b2))
        assert receiver.atoms() == []
        assert_index_identity(receiver)

    def test_shipped_batches_carry_a_pretransport_digest(self):
        from repro.replica import Replica

        a = Replica(site=1)
        a.edit(0, 0, "hi")
        (batch,) = a.pending()
        # The outbox sealed the digest at ship time: verify() compares
        # against a stamp minted before transport, so a forged copy
        # fails it.
        assert batch._digest is not None
        from repro.core.ops import OpBatch

        forged = OpBatch(batch.ops[:1], batch.origin, batch.seq_start,
                         batch.seq_end, batch.digest)
        assert batch.verify() and not forged.verify()

    def test_explode_invalidates_fresh_tree_cache(self):
        tree = explode(list("abcdef"))
        assert tree.atoms() == list("abcdef")
        assert [s.atom for s in tree.iter_live_slots()] == list("abcdef")

    @pytest.mark.parametrize("mode", ["udis", "sdis"])
    def test_structural_ops_invalidate_not_stale(self, mode):
        doc = Treedoc(site=1, mode=mode)
        doc.insert_text(0, list("hello world"))
        doc.delete_range(2, 5)
        doc.note_revision()
        doc.note_revision()
        generation = doc.generation
        doc.flatten_local(ROOT)
        # Flatten rewrote the structure: the generation is bumped so
        # derived caches (text/lines/snapshots) refresh.
        assert doc.generation > generation
        assert_index_identity(doc)

    def test_text_fast_path_handles_non_string_atoms(self):
        doc = Treedoc(site=1)
        doc.insert_text(0, ["a", 7, "b"])
        assert doc.text() == "a7b"
        assert doc.text("-") == "a-7-b"
        doc2 = Treedoc(site=2)
        doc2.insert_text(0, list("pure strings"))
        assert doc2.text() == "pure strings"

    def test_text_cache_tracks_generation(self):
        doc = Treedoc(site=1)
        doc.insert_text(0, list("abc"))
        assert doc.text() == "abc"
        assert doc.text() == "abc"  # cached hit
        doc.insert_text(3, list("d"))
        assert doc.text() == "abcd"  # generation bump refreshed it


FACTORIES = {
    "treedoc-udis": lambda site: TreedocAdapter(site, mode="udis"),
    "treedoc-sdis": lambda site: TreedocAdapter(site, mode="sdis"),
    "logoot": lambda site: LogootDoc(site, seed=7),
    "woot": WootDoc,
    "rga": RgaDoc,
}


class TestSnapshotIdentityAllCrdts:
    """Snapshot identity over every sequence CRDT: repeated reads are
    stable, two replicas that applied the same batches snapshot
    identically, and (for Treedoc) the cache equals a fresh walk."""

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_snapshot_identity(self, name, seed):
        factory = FACTORIES[name]
        rng = random.Random(seed)
        source, sink = factory(1), factory(2)
        for round_number in range(8):
            if len(source) and rng.random() < 0.4:
                start = rng.randrange(len(source))
                end = min(len(source), start + rng.randint(1, 4))
                batch = source.delete_range(start, end)
            else:
                index = rng.randint(0, len(source))
                run = [f"r{round_number}.{k}" for k in range(rng.randint(1, 5))]
                batch = source.insert_text(index, run)
            sink.apply_batch(batch)
            first = source.atoms()
            assert source.atoms() == first  # repeated reads are stable
            assert sink.atoms() == first    # replicas snapshot identically
        if isinstance(source, TreedocAdapter):
            assert source.atoms() == fresh_walk_atoms(source.doc.tree)
            assert sink.atoms() == fresh_walk_atoms(sink.doc.tree)


class TestEditFinger:
    """Localized single-slot edits resolve by the counted descent and
    must match list semantics exactly, index reads included. (An edit
    finger and cache toggles once served these inputs; the descent now
    answers them all.)"""

    @pytest.mark.parametrize("mode", ["udis", "sdis"])
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_localized_single_ops_match_model(self, mode, seed):
        doc = Treedoc(site=1, mode=mode)
        rng = random.Random(seed)
        model = []
        cursor = 0
        for tag in range(60):
            cursor = max(0, min(len(model), cursor + rng.randint(-3, 3)))
            if model and rng.random() < 0.35:
                index = min(cursor, len(model) - 1)
                doc.delete(index)
                model.pop(index)
            else:
                doc.insert(cursor, tag)
                model.insert(cursor, tag)
            assert_index_identity(doc)
        assert doc.atoms() == model
        assert [doc.atom_at(i) for i in range(len(model))] == model

    def test_finger_survives_distant_jumps(self):
        doc = Treedoc(site=1)
        doc.insert_text(0, list(range(500)))
        walk = list(doc.tree.iter_live_slots())
        # Jump far apart, then probe neighbours.
        for index in (0, 499, 250, 251, 249, 3, 498):
            assert doc.tree.live_slot_at(index) is walk[index]
            assert doc.atom_at(index) == index

    def test_disabled_everything_still_correct(self):
        doc = Treedoc(site=1)
        doc.insert_text(0, list("abcdef"))
        doc.delete_range(1, 3)
        assert doc.atoms() == list("adef")
        assert doc.text() == "adef"
        assert_index_identity(doc)
