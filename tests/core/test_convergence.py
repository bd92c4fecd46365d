"""CRDT convergence: the paper's central claim, property-tested.

Replicas that apply the same operations in any happened-before-
compatible order converge (section 2.2). Hypothesis drives randomized
concurrent schedules across 2 and 3 sites, both disambiguator modes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.treedoc import Treedoc
from tests.conftest import exchange_rounds


class TestTwoSiteConvergence:
    @given(seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["udis", "sdis"]))
    @settings(max_examples=60, deadline=None)
    def test_random_concurrent_schedules(self, seed, mode):
        rng = random.Random(seed)
        a, b = Treedoc(site=1, mode=mode), Treedoc(site=2, mode=mode)
        exchange_rounds(a, b, rng, rounds=12)
        assert a.atoms() == b.atoms()
        a.check()
        b.check()


class TestThreeSiteConvergence:
    @given(seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["udis", "sdis"]))
    @settings(max_examples=30, deadline=None)
    def test_broadcast_rounds(self, seed, mode):
        rng = random.Random(seed)
        docs = [Treedoc(site=s, mode=mode) for s in (1, 2, 3)]
        for round_number in range(8):
            batches = []
            for doc in docs:
                ops = []
                for _ in range(rng.randint(0, 3)):
                    if len(doc) and rng.random() < 0.3:
                        ops.append(doc.delete(rng.randrange(len(doc))))
                    else:
                        ops.append(doc.insert(
                            rng.randint(0, len(doc)),
                            f"{doc.site}:{round_number}",
                        ))
                batches.append(ops)
            # Deliver every batch to every other site, in a random
            # inter-site order (intra-batch order preserved: causal).
            order = [(i, j) for i in range(3) for j in range(3) if i != j]
            rng.shuffle(order)
            for source, target in order:
                docs[target].apply_all(batches[source])
            assert docs[0].atoms() == docs[1].atoms() == docs[2].atoms()
        for doc in docs:
            doc.check()


class TestDuplicateDelivery:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_at_least_once_insert_then_delete(self, seed):
        # The transport may duplicate messages; exact-duplicate inserts
        # and deletes must be harmless.
        rng = random.Random(seed)
        source = Treedoc(site=1, mode="udis")
        ops = []
        for step in range(20):
            if len(source) and rng.random() < 0.3:
                ops.append(source.delete(rng.randrange(len(source))))
            else:
                ops.append(source.insert(rng.randint(0, len(source)), step))
        replica = Treedoc(site=2, mode="udis")
        for op in ops:
            replica.apply(op)
            if rng.random() < 0.4:
                replica.apply(op)  # duplicate
        assert replica.atoms() == source.atoms()


class TestRunInsertConvergence:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_concurrent_run_inserts(self, seed):
        rng = random.Random(seed)
        a, b = Treedoc(site=1), Treedoc(site=2)
        for op in a.insert_text(0, list("0123456789")).ops:
            b.apply(op)
        run_a = a.insert_text(rng.randint(0, len(a)), ["A1", "A2", "A3"]).ops
        run_b = b.insert_text(rng.randint(0, len(b)), ["B1", "B2"]).ops
        for op in run_b:
            a.apply(op)
        for op in run_a:
            b.apply(op)
        assert a.atoms() == b.atoms()
        atoms = a.atoms()
        # Concurrent runs may interleave when they target the same gap
        # (their subtrees merge mini-node-wise), but each run's internal
        # order is always preserved.
        positions_a = [atoms.index(x) for x in ("A1", "A2", "A3")]
        positions_b = [atoms.index(x) for x in ("B1", "B2")]
        assert positions_a == sorted(positions_a)
        assert positions_b == sorted(positions_b)
