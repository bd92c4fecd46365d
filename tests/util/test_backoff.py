"""repro.util.backoff: the single backoff/jitter implementation.

Satellite regression: the schedule extracted from
``AntiEntropyPolicy`` must be *equivalent* to the formula the policy
shipped with (``min(max, base * factor**(n-1))``), and the policy must
actually delegate to it — one implementation, reused by both the
anti-entropy layer and the daemon's reconnect loop.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication.sync import SYNC_BACKOFF, AntiEntropyPolicy
from repro.util.backoff import BackoffPolicy, jittered
from repro.util.rng import derive_rng


def legacy_backoff(base: float, factor: float, cap: float,
                   failures: int) -> float:
    """The pre-extraction formula, verbatim (the regression oracle)."""
    if failures <= 0:
        return 0.0
    return min(cap, base * factor ** (failures - 1))


class TestSchedule:
    def test_zero_failures_is_immediate(self):
        assert BackoffPolicy().delay(0) == 0.0
        assert BackoffPolicy().delay(-3) == 0.0

    def test_geometric_growth_until_cap(self):
        policy = BackoffPolicy(base=100.0, factor=2.0, maximum=900.0)
        assert policy.delays(6) == [100.0, 200.0, 400.0, 800.0,
                                    900.0, 900.0]

    def test_first_delay_is_base(self):
        assert BackoffPolicy(base=50.0).delay(1) == 50.0

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.floats(1.0, 10_000.0),
        factor=st.floats(1.0, 8.0),
        cap=st.floats(1.0, 100_000.0),
        failures=st.integers(0, 40),
    )
    def test_equivalent_to_legacy_anti_entropy_formula(
        self, base, factor, cap, failures
    ):
        # The extraction regression: BackoffPolicy IS the old inline
        # AntiEntropyPolicy formula, for any parameters and any count.
        expected = legacy_backoff(base, factor, cap, failures)
        assert BackoffPolicy(base, factor, cap).delay(failures) == expected

    def test_policy_delegates_to_shared_implementation(self):
        # The anti-entropy schedule is the shared implementation:
        # 200 ms, doubling per failure, capped at 3200 ms.
        assert SYNC_BACKOFF == BackoffPolicy(200.0, 2.0, 3200.0)
        policy = AntiEntropyPolicy()
        for failures in range(12):
            assert policy.backoff(failures) == SYNC_BACKOFF.delay(failures)
            assert policy.backoff(failures) == legacy_backoff(
                200.0, 2.0, 3200.0, failures)


class TestJitter:
    def test_stretch_only_never_shrinks(self):
        rng = derive_rng(7, "jitter-test")
        for _ in range(200):
            value = jittered(100.0, 0.5, rng)
            assert 100.0 <= value <= 150.0

    def test_disabled_jitter_passes_through(self):
        class Exploding(random.Random):
            def random(self):  # pragma: no cover - must not be called
                raise AssertionError("jitter drew from the rng")

        assert jittered(100.0, 0.0, Exploding()) == 100.0
        assert jittered(0.0, 0.5, Exploding()) == 0.0
        assert jittered(-5.0, 0.5, Exploding()) == -5.0

    def test_deterministic_from_seed(self):
        a = [jittered(100.0, 0.5, derive_rng(3, "x")) for _ in range(1)]
        b = [jittered(100.0, 0.5, derive_rng(3, "x")) for _ in range(1)]
        assert a == b

    def test_site_jitter_matches_shared_rule(self):
        # The site's _jittered is the shared rule over its seeded
        # per-site stream: same seed, same draws, same stretches.
        from repro.replication.cluster import Cluster

        cluster = Cluster(2, policy=AntiEntropyPolicy(jitter=0.5,
                                                      jitter_seed=11))
        site = cluster[1]
        oracle = derive_rng(11, "sync-jitter", 1)
        expected = [jittered(200.0, 0.5, oracle) for _ in range(5)]
        assert [site._jittered(200.0) for _ in range(5)] == expected


class TestExports:
    def test_util_package_exports(self):
        import repro.util as util

        assert util.BackoffPolicy is BackoffPolicy
        assert util.jittered is jittered
