"""Snapshot-cache identity: the incremental read path never lies.

The tree's live-snapshot cache (DESIGN.md section 6) is maintained by
splices; these properties pin it to the ground truth — a fresh
``iter_live_slots()`` infix walk — after arbitrary interleavings of
local batches, remote batches, flatten/explode, tombstone purge and
``recount_subtree``. A second suite checks snapshot identity over all
four CRDTs, and a third exercises the edit finger with the snapshot
cache disabled.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LogootDoc, RgaDoc, TreedocAdapter, WootDoc
from repro.core.flatten import explode
from repro.core.node import (
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


def assert_cache_identity(doc: Treedoc) -> None:
    """The cached snapshot, index lookups and ranks all agree with a
    fresh walk (and with each other)."""
    walk = list(doc.tree.iter_live_slots())
    assert doc.atoms() == [slot.atom for slot in walk]
    assert len(doc) == len(walk)
    for index, slot in enumerate(walk):
        assert doc.tree.live_slot_at(index) is slot
        assert doc.tree.live_rank(slot) == index
    doc.check()  # includes the cache-vs-walk structural invariant


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
    @pytest.mark.parametrize("mode", ["udis", "sdis"])
    @given(steps=st.lists(_step, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_interleavings_match_fresh_walk(self, mode, steps):
        # Three replicas in causal lockstep (the commitment protocol
        # guarantees exactly this around a flatten): ``doc`` edits
        # locally, ``peer`` mints the remote batches, ``mirror`` only
        # ever replays — so doc exercises the local splice paths, peer
        # the mixed paths, and mirror the pure apply_batch path.
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
                # Purely local representation change: leaf entries join
                # the cache as opaque segments, spliced around (never
                # dropped) by the surrounding steps.
                doc.note_revision()
                doc.collapse_cold(min_age=1, min_atoms=2)
                assert doc.atoms() == doc.tree.walk_atoms()
            elif kind == "leaf_explode":
                leaves = doc.tree.array_leaves()
                if leaves:
                    leaves[position % len(leaves)].explode()
            elif kind == "read":
                # walk_atoms handles mixed storage (a collapse step may
                # have left array leaves in the tree).
                assert doc.atoms() == doc.tree.walk_atoms()
        # Explode any remaining leaves (itself a splice path) so the
        # slot-level identity below can walk every slot.
        for leaf in doc.tree.array_leaves():
            leaf.explode()
        assert_cache_identity(doc)
        # The mirror applied every batch remotely: same visible content,
        # and its own cache holds the identity too.
        assert mirror.atoms() == doc.atoms()
        assert_cache_identity(mirror)

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
        assert_cache_identity(receiver)

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
        # Flatten rewrote the structure: the cache must have been
        # dropped (never stale) and the generation bumped so derived
        # caches (text/lines/snapshots) refresh.
        assert doc.generation > generation
        assert doc.tree._live is None
        assert_cache_identity(doc)

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


class TestBulkHintDrift:
    """The flush-time drift detectors (previously ``pragma: no cover``
    safety nets): a bulk hint that does not match the changes actually
    made must invalidate the cache — never leave it stale, never crash.
    Each test doctors one mismatch and checks the next read rebuilds."""

    def _leafy_doc(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, [f"l{i}" for i in range(16)])
        doc.note_revision()
        doc.flatten_local(ROOT)
        for _ in range(3):
            doc.note_revision()
        doc.collapse_cold(min_age=1, min_atoms=4)
        assert doc.array_leaf_count >= 1
        doc.atoms()
        assert doc.tree._live_has_leaf
        return doc

    def test_wrong_removed_range_hint_invalidates(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, list("abcdef"))
        doc.atoms()
        tree = doc.tree
        slot = tree.live_slot_at(0)
        tree.begin_bulk()
        tree.make_tombstone(slot)
        tree.hint_bulk_removed_range(0, 0)  # lies: one removal happened
        tree.end_bulk()
        assert tree._live is None
        assert doc.atoms() == list("bcdef")
        assert_cache_identity(doc)

    def test_removed_range_hint_into_leaf_interior_invalidates(self):
        doc = self._leafy_doc()
        before = doc.atoms()
        tree = doc.tree
        tree.begin_bulk()
        tree._bulk_removed = True  # a removal recorded, range mid-leaf
        tree.hint_bulk_removed_range(1, 2)
        tree.end_bulk()
        assert tree._live is None
        assert doc.atoms() == before
        assert doc.atoms() == doc.tree.walk_atoms()
        doc.check()

    def test_wrong_added_at_hint_invalidates(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, list("abc"))
        doc.atoms()
        tree = doc.tree
        slot = tree.live_slot_at(0)
        tree.begin_bulk()
        tree._bulk_added.extend([slot, slot])  # drifted: listed twice
        tree.hint_bulk_added_at(1)
        tree.end_bulk()
        assert tree._live is None
        assert doc.atoms() == list("abc")
        assert_cache_identity(doc)

    def test_added_at_hint_into_leaf_interior_invalidates(self):
        doc = self._leafy_doc()
        before = doc.atoms()
        tree = doc.tree
        tree.begin_bulk()
        tree._bulk_added.append(tree.root)
        tree.hint_bulk_added_at(1)  # offset 1 lands inside the leaf
        tree.end_bulk()
        assert tree._live is None
        assert doc.atoms() == before
        assert doc.atoms() == doc.tree.walk_atoms()
        doc.check()


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
    """The finger path: cache disabled, localized edits resolve by
    chain walks and must match list semantics exactly."""

    @pytest.mark.parametrize("mode", ["udis", "sdis"])
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_localized_single_ops_match_model(self, mode, seed):
        doc = Treedoc(site=1, mode=mode)
        doc.tree.configure_read_cache(snapshot=False, finger=True)
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
        assert doc.atoms() == model
        assert [doc.atom_at(i) for i in range(len(model))] == model

    def test_finger_survives_distant_jumps(self):
        doc = Treedoc(site=1)
        doc.tree.configure_read_cache(snapshot=False, finger=True)
        doc.insert_text(0, list(range(500)))
        walk = list(doc.tree.iter_live_slots())
        # Jump far beyond the window, then probe neighbours.
        for index in (0, 499, 250, 251, 249, 3, 498):
            assert doc.tree.live_slot_at(index) is walk[index]

    def test_disabled_everything_still_correct(self):
        doc = Treedoc(site=1)
        doc.tree.configure_read_cache(snapshot=False, finger=False)
        doc.insert_text(0, list("abcdef"))
        doc.delete_range(1, 3)
        assert doc.atoms() == list("adef")
        assert doc.text() == "adef"
