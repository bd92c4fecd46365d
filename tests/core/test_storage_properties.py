"""Property tests across the storage stack (hypothesis).

Random edit histories driven through flatten, the disk format and the
live mixed storage (collapse into array leaves, explode back) must
always preserve content, identifier order and the tree invariants.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import disk
from repro.core.path import ROOT
from repro.core.treedoc import Treedoc
from repro.metrics.overhead import measure_tree


def _random_doc(seed: int, mode: str, steps: int = 60) -> Treedoc:
    rng = random.Random(seed)
    doc = Treedoc(site=1, mode=mode)
    for step in range(steps):
        if len(doc) and rng.random() < 0.35:
            doc.delete(rng.randrange(len(doc)))
        else:
            doc.insert(rng.randint(0, len(doc)), f"a{step}")
    return doc


class TestFlattenProperties:
    @given(seed=st.integers(0, 2**31), mode=st.sampled_from(["sdis", "udis"]))
    @settings(max_examples=40, deadline=None)
    def test_whole_document_flatten_preserves_content(self, seed, mode):
        doc = _random_doc(seed, mode)
        content = doc.atoms()
        doc.note_revision()
        doc.flatten_local(ROOT)
        assert doc.atoms() == content
        assert doc.tree.id_length == len(doc)  # no tombstones survive
        ids = doc.posids()
        assert ids == sorted(ids)
        doc.check()

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_flatten_then_edit_then_flatten(self, seed):
        rng = random.Random(seed)
        doc = _random_doc(seed, "sdis", steps=30)
        for _ in range(3):
            doc.note_revision()
            doc.flatten_local(ROOT)
            for step in range(8):
                if len(doc) and rng.random() < 0.4:
                    doc.delete(rng.randrange(len(doc)))
                else:
                    doc.insert(rng.randint(0, len(doc)), f"x{step}")
            doc.check()


class TestDiskProperties:
    @given(seed=st.integers(0, 2**31), mode=st.sampled_from(["sdis", "udis"]))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_any_history(self, seed, mode):
        doc = _random_doc(seed, mode)
        image = disk.save(doc.tree)
        loaded = disk.load(image)
        assert loaded.atoms() == doc.tree.atoms()
        assert [repr(p) for p in loaded.posids()] == [
            repr(p) for p in doc.tree.posids()
        ]
        loaded.check_invariants()


class TestMixedStorageProperties:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_compact_explode_round_trip(self, seed):
        doc = _random_doc(seed, "sdis", steps=40)
        doc.note_revision()
        doc.flatten_local(ROOT)
        content = doc.atoms()
        posids = [repr(p) for p in doc.posids()]
        doc.note_revision()
        doc.collapse_cold(min_age=1, min_atoms=2)
        assert doc.atoms() == content
        for leaf in doc.tree.array_leaves():
            leaf.explode()
        assert doc.array_leaf_count == 0
        assert doc.atoms() == content
        assert [repr(p) for p in doc.posids()] == posids
        doc.check()

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_mixed_never_costs_more_than_tree(self, seed):
        doc = _random_doc(seed, "sdis", steps=40)
        doc.note_revision()
        doc.flatten_local(ROOT)
        doc.note_revision()
        doc.collapse_cold(min_age=1, min_atoms=2)
        stats = measure_tree(doc.tree, with_disk=False)
        if len(doc) >= 2:
            assert (stats.mixed_memory_overhead_bytes
                    <= stats.memory_overhead_bytes)
        doc.check()
