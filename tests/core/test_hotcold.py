"""Hot/cold mechanics: partial explode, tombstone-bitmap leaves, the
disk-v3 sidecar, re-collapse hysteresis and the incremental sweep
(DESIGN.md section 12).

Every identity assertion compares against a plain replica with the
identical op history: the mixed representation must stay atom- and
identifier-identical through every one of these paths.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import disk
from repro.core.node import collect_leaf_slots
from repro.core.path import ROOT
from repro.core.tree import TreedocTree
from repro.core.treedoc import Treedoc
from repro.errors import EncodingError
from repro.metrics.overhead import measure_tree
from tests.core.test_node_layout import legacy_disk_trees


def make_pair(n, mode="sdis", min_atoms=8):
    """A collapsed mixed doc and a plain replica, identical histories."""
    mixed = Treedoc(site=1, mode=mode)
    plain = Treedoc(site=2, mode=mode)
    plain.apply_batch(mixed.insert_text(0, [f"a{i}" for i in range(n)]))
    op = mixed.make_flatten(ROOT)
    mixed.apply_flatten(op)
    plain.apply_flatten(op)
    for _ in range(3):
        mixed.note_revision()
    mixed.collapse_cold(min_age=1, min_atoms=min_atoms)
    assert mixed.array_leaf_count >= 1
    return mixed, plain


def assert_identical(mixed, plain):
    assert mixed.atoms() == plain.atoms()
    assert [repr(p) for p in mixed.posids()] == [
        repr(p) for p in plain.posids()
    ]
    mixed.check()
    plain.check()


class TestPartialExplode:
    def test_interior_edit_partial_explodes_large_leaf(self):
        n = TreedocTree.PARTIAL_EXPLODE_MIN * 2
        mixed, plain = make_pair(n)
        assert any(
            leaf.id_count >= TreedocTree.PARTIAL_EXPLODE_MIN
            for leaf in mixed.tree.array_leaves()
        )
        plain.apply_batch(mixed.insert_text(n // 2 + 65, ["mid"]))
        assert mixed.tree.partial_explodes >= 1
        # O(edit) materialization: the untouched flanks stay collapsed.
        assert mixed.array_leaf_count >= 2
        assert_identical(mixed, plain)

    def test_edit_at_canonical_split_boundary_stays_identical(self):
        # An insert landing exactly between two flank regions resolves
        # its neighbours across the split; the flanks it routes through
        # explode, and identifiers must still match the plain replica.
        n = TreedocTree.PARTIAL_EXPLODE_MIN * 2
        mixed, plain = make_pair(n)
        plain.apply_batch(mixed.insert_text(n // 2, ["mid"]))
        assert mixed.tree.partial_explodes >= 1
        assert_identical(mixed, plain)

    def test_remote_interior_edit_partial_explodes(self):
        n = TreedocTree.PARTIAL_EXPLODE_MIN * 2
        mixed, plain = make_pair(n)
        mixed.apply_batch(plain.insert_text(n // 2 + 65, ["mid"]))
        assert mixed.tree.partial_explodes >= 1
        assert_identical(mixed, plain)

    def test_small_leaves_explode_wholesale(self):
        mixed, plain = make_pair(32)
        plain.apply_batch(mixed.insert_text(16, ["mid"]))
        assert mixed.tree.partial_explodes == 0
        assert mixed.tree.explodes >= 1
        assert_identical(mixed, plain)


class TestBitmapLeaves:
    def _deleted_pair(self):
        """Tombstones inside collapsed regions, re-collapsed with the
        dead-slot bitmap (no purge, no flatten)."""
        mixed, plain = make_pair(64, min_atoms=4)
        plain.apply_batch(mixed.delete_range(10, 14))
        plain.apply_batch(mixed.delete_range(30, 31))
        for _ in range(4):
            mixed.note_revision()
        mixed.collapse_cold(min_age=1, min_atoms=4)
        return mixed, plain

    def test_tombstoned_regions_collapse_with_bitmap(self):
        mixed, plain = self._deleted_pair()
        assert any(leaf.dead for leaf in mixed.tree.array_leaves())
        assert_identical(mixed, plain)

    def test_reads_mask_dead_slots(self):
        mixed, plain = self._deleted_pair()
        assert len(mixed) == len(plain)
        assert mixed.text() == plain.text()
        for index in (0, 5, 9, 10, 25, len(mixed) - 1):
            assert mixed.atom_at(index) == plain.atom_at(index)

    def test_remote_delete_into_dead_leaf_converges(self):
        mixed, plain = self._deleted_pair()
        mixed.apply_batch(plain.delete_range(5, 7))
        assert_identical(mixed, plain)

    def test_udis_discard_regions_collapse_without_bitmap(self):
        mixed, plain = make_pair(64, mode="udis", min_atoms=4)
        plain.apply_batch(mixed.delete_range(10, 14))
        for _ in range(4):
            mixed.note_revision()
        mixed.collapse_cold(min_age=1, min_atoms=4)
        assert all(leaf.dead == 0 for leaf in mixed.tree.array_leaves())
        assert_identical(mixed, plain)

    def test_measure_tree_counts_bitmap_tombstones(self):
        mixed, _ = self._deleted_pair()
        stats = measure_tree(mixed.tree)
        assert stats.tombstones >= 5  # the two deleted ranges
        assert stats.used_ids == stats.live_atoms + stats.tombstones


class TestDiskV3:
    def test_bitmap_leaves_roundtrip(self):
        mixed, _ = TestBitmapLeaves()._deleted_pair()
        image = disk.save(mixed.tree)
        assert image.version == disk.FORMAT_VERSION
        loaded = disk.load(image)
        assert loaded.atoms() == mixed.atoms()
        assert [repr(p) for p in loaded.posids()] == [
            repr(p) for p in mixed.posids()
        ]
        assert sorted(
            leaf.dead for leaf in loaded.array_leaves()
        ) == sorted(leaf.dead for leaf in mixed.tree.array_leaves())
        loaded.check_invariants()

    def test_v2_save_rejects_dead_leaves(self):
        # No v2 writer is left to drop a dead-slot bitmap: save takes no
        # version and writes a dead-leaf tree as v3, and those bytes read
        # under the bitmap-free v2 grammar are rejected, not mis-loaded.
        mixed, _ = TestBitmapLeaves()._deleted_pair()
        with pytest.raises(TypeError):
            disk.save(mixed.tree, version=2)
        image = disk.save(mixed.tree)
        assert image.version == disk.FORMAT_VERSION == 3
        with pytest.raises(EncodingError):
            disk.load(dataclasses.replace(image, version=2))

    def test_v2_image_without_bitmaps_still_loads(self):
        # No v2 writer exists: the checked-in image's leaves load
        # collapsed and bitmap-free, and once one re-collapses around a
        # tombstone the tree saves as v3, bitmap included.
        (loaded,) = [tree for tree in legacy_disk_trees()
                     if tree.array_leaves()]
        leaves = loaded.array_leaves()
        assert leaves and not any(leaf.dead for leaf in leaves)
        loaded.check_invariants()
        node = leaves[0].explode()
        loaded.make_tombstone(node)
        atoms, dead = collect_leaf_slots(node, 1, True)
        assert dead
        loaded.collapse_subtree(node, atoms=atoms, dead=dead)
        image = disk.save(loaded)
        assert image.version == disk.FORMAT_VERSION == 3
        again = disk.load(image)
        assert again.atoms() == loaded.atoms()
        assert again.posids() == loaded.posids()
        assert [leaf.dead for leaf in again.array_leaves()] == [dead]


class TestIncrementalSweep:
    def _lockstep(self, auto, manual, batch):
        manual.apply_batch(batch)

    def test_auto_boundary_matches_manual_full_pass(self):
        # Same history, same boundaries: the incremental sweep (off the
        # touch-stamp log) must collapse exactly what a full survey
        # pass collapses.
        auto = Treedoc(site=1, mode="sdis", collapse_every=1,
                       collapse_min_age=2, collapse_min_atoms=4)
        manual = Treedoc(site=2, mode="sdis",
                         collapse_min_age=2, collapse_min_atoms=4)
        manual.apply_batch(
            auto.insert_text(0, [f"a{i}" for i in range(48)]))
        op = auto.make_flatten(ROOT)
        auto.apply_flatten(op)
        manual.apply_flatten(op)

        def tick():
            auto.note_revision()  # boundary: runs the auto sweep
            manual.note_revision()
            manual.collapse_cold()

        for _ in range(4):
            tick()
        assert auto.array_leaf_count == manual.array_leaf_count > 0
        for step in range(6):
            manual.apply_batch(auto.insert_text(24, [f"h{step}"]))
            tick()
        for _ in range(8):
            tick()
        assert auto.array_leaf_count == manual.array_leaf_count
        assert_identical(auto, manual)

    def test_detached_pending_survives_full_rebuild(self):
        doc = Treedoc(site=1, mode="sdis", collapse_every=1,
                      collapse_min_age=1, collapse_min_atoms=4)
        doc.insert_text(0, [f"a{i}" for i in range(32)])
        doc.note_revision()
        doc.flatten_local(ROOT)
        for _ in range(3):
            doc.note_revision()
        assert doc.array_leaf_count >= 1
        doc.insert_text(8, ["edit"])  # queues the touched region
        # A whole-document flatten rebuilds every node: the queued
        # entries now point at detached structure.
        doc.flatten_local(ROOT)
        before = doc.atoms()
        for _ in range(4):
            doc.note_revision()  # sweeps must skip the dead entries
        assert doc.atoms() == before
        assert doc.array_leaf_count >= 1  # and still re-collapse
        doc.check()

    def test_damping_defers_recollapse(self):
        doc = Treedoc(site=1, mode="sdis", collapse_every=1,
                      collapse_min_age=1, collapse_min_atoms=2)
        doc.insert_text(0, [f"a{i}" for i in range(16)])
        doc.note_revision()
        doc.flatten_local(ROOT)
        doc.note_revision()
        doc.note_revision()
        assert doc.array_leaf_count == 1
        # A delete touches the leaf without changing the canonical
        # shape: the region explodes (hysteresis records it) and stays
        # tree-form through its damped window.
        doc.delete_range(3, 4)
        assert doc._explode_history
        assert doc.array_leaf_count == 0
        doc.note_revision()  # age 1 < damped requirement (base << 1)
        assert doc.array_leaf_count == 0
        assert doc._sweep_pending  # withheld regions stay queued
        doc.note_revision()  # age 2: the damped window has passed
        assert doc.array_leaf_count == 1
        assert any(leaf.dead for leaf in doc.tree.array_leaves())
        doc.check()

    def test_explode_history_evicts_the_stalest_region(self, monkeypatch):
        import repro.core.treedoc as treedoc_module

        class Slot:
            def __init__(self, bits):
                self._bits = bits

            def bits(self):
                return self._bits

        # Feed region keys straight in: a "node" here is its own bits.
        monkeypatch.setattr(treedoc_module, "slot_posid", Slot)
        doc = Treedoc(site=1)
        limit = doc._HISTORY_LIMIT
        for i in range(limit):
            doc._on_explode((i,))
            doc.note_revision()
        doc._on_explode((0,))  # the stalest explodes again: now freshest
        doc._on_explode((limit,))  # full: evicts (1,), now the stalest
        history = doc._explode_history
        assert len(history) == limit
        assert (1,) not in history
        assert list(history)[-2:] == [(0,), (limit,)]
        assert history[(0,)] == [2, limit]

    def test_explode_history_soak(self, monkeypatch):
        # A large UDIS document collapsed into many small leaves (a
        # hole every 31 atoms keeps them apart; SDIS would fold the
        # holes into two bitmap leaves), then scattered one-atom edits
        # until well over the cap's worth of regions exploded.
        import random

        from repro.core.node import slot_posid

        doc = Treedoc(site=1)
        doc.insert_text(0, [f"a{i}" for i in range(4000)])
        doc.note_revision()
        doc.flatten_local(ROOT)
        for index in range(len(doc) - 31, 0, -31):
            doc.delete(index)
        for _ in range(3):
            doc.note_revision()
        doc.collapse_cold()
        assert doc.array_leaf_count > 100
        model = doc.atoms()

        exploded = set()
        on_explode = doc._on_explode

        def record(node):
            exploded.add(slot_posid(node).bits())
            on_explode(node)

        monkeypatch.setattr(doc, "_on_explode", record)
        limit = Treedoc._HISTORY_LIMIT
        history = doc._explode_history
        rng = random.Random(7)
        evictions = 0
        while len(exploded) < 80:
            before = list(history)
            index = rng.randrange(len(doc))
            if rng.random() < 0.3:
                doc.insert(index, "x")
                model.insert(index, "x")
            else:
                doc.delete(index)
                del model[index]
            doc.note_revision()
            assert len(history) <= limit
            # Nothing decays without a collapse pass: a key leaves only
            # by eviction, and the stalest goes first.
            gone = [key for key in before if key not in history]
            assert gone == before[:len(gone)]
            evictions += len(gone)
            stamps = [entry[1] for entry in history.values()]
            assert stamps == sorted(stamps)  # recency order
        assert len(history) == limit
        assert evictions >= len(exploded) - limit
        assert doc.atoms() == model
        doc.check()

    def test_load_state_resets_sweep_state(self):
        source = Treedoc(site=1, mode="sdis", collapse_every=1,
                         collapse_min_age=1, collapse_min_atoms=4)
        source.insert_text(0, [f"a{i}" for i in range(32)])
        source.note_revision()
        source.flatten_local(ROOT)
        source.note_revision()
        source.note_revision()
        source.insert_text(8, ["edit"])  # pending + explode history
        assert source._sweep_pending and source._explode_history

        sink = Treedoc(site=2, mode="sdis", collapse_every=1,
                       collapse_min_age=1, collapse_min_atoms=4)
        sink.load_state(source.capture_state())
        assert not sink._sweep_pending
        assert not sink._explode_history
        assert sink._needs_full_sweep
        assert sink.atoms() == source.atoms()
        # The explode listener is rewired to the fresh tree: a touch
        # into a collapsed region records history again.
        for _ in range(3):
            sink.note_revision()
        assert sink.array_leaf_count >= 1
        # Index 24 sits inside a collapsed leaf (index 8's region still
        # holds the non-canonical "edit" atom, so it never collapsed).
        sink.insert_text(24, ["again"])
        assert sink._explode_history
        sink.check()


class TestCounters:
    def test_measure_tree_mirrors_tree_counters(self):
        mixed, _ = make_pair(64, min_atoms=4)
        mixed.text()
        mixed.insert_text(20, ["mid"])  # explodes the touched region
        stats = measure_tree(mixed.tree)
        tree = mixed.tree
        assert stats.explodes == tree.explodes >= 1
        assert stats.partial_explodes == tree.partial_explodes
