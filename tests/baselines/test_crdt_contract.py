"""One contract suite over every sequence CRDT (Treedoc + baselines).

Each implementation must behave like a replicated list: local edits have
list semantics, remote replay in causal order converges, deletes are
idempotent against duplicates of themselves. The batch contract rides on
top: ``insert_text`` / ``delete_range`` return one
:class:`repro.core.ops.OpBatch` per local edit, ``apply_batch`` replays
one, and batch-apply must be indistinguishable from sequential apply —
including under interleaved concurrent batches from several sites.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LogootDoc, RgaDoc, TreedocAdapter, WootDoc
from repro.core.ops import OpBatch
from tests.conftest import exchange_rounds

FACTORIES = {
    "treedoc-udis": lambda site: TreedocAdapter(site, mode="udis"),
    "treedoc-sdis": lambda site: TreedocAdapter(site, mode="sdis"),
    "logoot": lambda site: LogootDoc(site, seed=7),
    "woot": WootDoc,
    "rga": RgaDoc,
}


@pytest.fixture(params=sorted(FACTORIES))
def factory(request):
    return FACTORIES[request.param]


class TestListSemantics:
    def test_insert_delete_matches_list_oracle(self, factory):
        doc = factory(1)
        rng = random.Random(5)
        model = []
        for step in range(300):
            if model and rng.random() < 0.35:
                index = rng.randrange(len(model))
                doc.delete(index)
                model.pop(index)
            else:
                index = rng.randint(0, len(model))
                doc.insert(index, f"a{step}")
                model.insert(index, f"a{step}")
            assert doc.atoms() == model, step

    def test_text_join(self, factory):
        doc = factory(1)
        for i, c in enumerate("abc"):
            doc.insert(i, c)
        assert doc.text() == "abc"
        assert len(doc) == 3

    def test_out_of_range_rejected(self, factory):
        doc = factory(1)
        with pytest.raises(IndexError):
            doc.insert(1, "x")
        with pytest.raises(IndexError):
            doc.delete(0)

    def test_insert_run_semantics(self, factory):
        doc = factory(1)
        doc.insert_text(0, list("ad"))
        doc.insert_text(1, list("bc"))
        assert doc.text() == "abcd"


class TestReplication:
    def test_causal_replay_reproduces_source(self, factory):
        source = factory(1)
        ops = []
        rng = random.Random(11)
        for step in range(120):
            if len(source) and rng.random() < 0.3:
                ops.append(source.delete(rng.randrange(len(source))))
            else:
                ops.append(source.insert(rng.randint(0, len(source)), step))
        replica = factory(2)
        for op in ops:
            replica.apply(op)
        assert replica.atoms() == source.atoms()

    def test_two_site_concurrent_convergence(self, factory):
        rng = random.Random(23)
        a, b = factory(1), factory(2)
        exchange_rounds(a, b, rng, rounds=25)

    def test_duplicate_insert_delivery_tolerated(self, factory):
        source = factory(1)
        op = source.insert(0, "x")
        replica = factory(2)
        replica.apply(op)
        replica.apply(op)
        assert replica.atoms() == ["x"]


class TestConvergenceProperty:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=12, deadline=None)
    def test_random_schedules(self, name, seed):
        rng = random.Random(seed)
        make = FACTORIES[name]
        a, b = make(1), make(2)
        exchange_rounds(a, b, rng, rounds=8)


def _random_batch(doc, rng, tag):
    """One random local batch edit; returns the OpBatch to ship."""
    length = len(doc)
    if length > 4 and rng.random() < 0.4:
        start = rng.randrange(length - 2)
        return doc.delete_range(start, start + rng.randint(1, 2))
    index = rng.randint(0, length)
    atoms = [f"{tag}.{k}" for k in range(rng.randint(1, 4))]
    return doc.insert_text(index, atoms)


class TestBatchContract:
    def test_insert_text_returns_one_batch(self, factory):
        doc = factory(1)
        batch = doc.insert_text(0, list("abc"))
        assert isinstance(batch, OpBatch)
        assert len(batch) == 3
        assert batch.origin == 1
        assert batch.verify()
        assert doc.atoms() == list("abc")

    def test_delete_range_returns_one_batch(self, factory):
        doc = factory(1)
        doc.insert_text(0, list("abcdef"))
        batch = doc.delete_range(1, 4)
        assert isinstance(batch, OpBatch)
        assert len(batch) == 3
        assert doc.atoms() == list("aef")

    def test_batch_bounds_checked(self, factory):
        doc = factory(1)
        doc.insert_text(0, list("abc"))
        with pytest.raises(IndexError):
            doc.insert_text(5, ["x"])
        with pytest.raises(IndexError):
            doc.delete_range(1, 7)

    def test_insert_run_matches_single_inserts(self, factory):
        """Regression for the quadratic one-by-one default: the batch
        path must produce the same visible sequence as single inserts,
        and its operations must replay to the same state remotely."""
        run_doc, single_doc = factory(1), factory(1)
        run_doc.insert_text(0, list("hello world"))
        for offset, atom in enumerate("hello world"):
            single_doc.insert(offset, atom)
        assert run_doc.atoms() == single_doc.atoms()
        # A mid-document run, replayed on a replica.
        run_doc.insert_text(5, list("XYZ"))
        for offset, atom in enumerate("XYZ"):
            single_doc.insert(5 + offset, atom)
        assert run_doc.atoms() == single_doc.atoms()
        source, mirror = factory(1), factory(2)
        mirror.apply_batch(source.insert_text(0, list("abcd")))
        mirror.apply_batch(source.insert_text(2, list("123")))
        mirror.apply_batch(source.insert_text(0, []))  # empty batch ok
        assert mirror.atoms() == source.atoms()

    def test_apply_batch_equals_sequential_apply(self, factory):
        rng = random.Random(31)
        source = factory(1)
        fast, slow = factory(2), factory(3)
        for step in range(30):
            batch = _random_batch(source, rng, f"s{step}")
            fast.apply_batch(batch)
            for op in batch.ops:
                slow.apply(op)
            assert fast.atoms() == slow.atoms() == source.atoms(), step

    def test_concurrent_batches_converge(self, factory):
        """Two sites edit in batches concurrently; each applies the
        other's batches (one with apply_batch, one op-by-op) and both
        must converge every round."""
        rng = random.Random(47)
        a, b = factory(1), factory(2)
        for round_number in range(15):
            batches_a = [_random_batch(a, rng, f"a{round_number}.{i}")
                         for i in range(rng.randint(0, 2))]
            batches_b = [_random_batch(b, rng, f"b{round_number}.{i}")
                         for i in range(rng.randint(0, 2))]
            for batch in batches_b:
                a.apply_batch(batch)
            for batch in batches_a:
                for op in batch.ops:
                    b.apply(op)
            assert a.atoms() == b.atoms(), f"diverged in round {round_number}"

    def test_batch_seq_ranges_are_monotonic(self, factory):
        doc = factory(1)
        first = doc.insert_text(0, list("ab"))
        second = doc.insert_text(0, list("cd"))
        third = doc.delete_range(0, 1)
        assert first.seq_end <= second.seq_start
        assert second.seq_end <= third.seq_start


class TestBatchConvergenceProperty:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_interleaved_concurrent_batches(self, name, seed):
        """Hypothesis property: batch-apply ≡ sequential-apply under
        interleaved concurrent batches, across all implementations —
        with local storage maintenance (``maintain``: a no-op for the
        baselines, cold-region collapse for Treedoc) interleaved on one
        side only, which must never be observable."""
        rng = random.Random(seed)
        make = FACTORIES[name]
        a, b = make(1), make(2)
        for round_number in range(6):
            batches_a = [_random_batch(a, rng, f"a{round_number}.{i}")
                         for i in range(rng.randint(0, 3))]
            batches_b = [_random_batch(b, rng, f"b{round_number}.{i}")
                         for i in range(rng.randint(0, 3))]
            # a replays b's work batch-wise; b replays a's op-wise: the
            # two application styles must stay indistinguishable.
            for batch in batches_b:
                a.apply_batch(batch)
            for batch in batches_a:
                for op in batch.ops:
                    b.apply(op)
            if rng.random() < 0.5:
                a.maintain()
            assert a.atoms() == b.atoms(), f"diverged in round {round_number}"


class TestOverheadHooks:
    def test_id_bits_and_element_counts_reported(self, factory):
        doc = factory(1)
        for i in range(10):
            doc.insert(i, i)
        assert doc.total_id_bits() > 0
        assert doc.element_count() >= 10
        doc.delete(0)
        assert doc.element_count() >= 9
