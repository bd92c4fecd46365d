"""Scripted churn at scale: joins, graceful leaves, crashes, durable
recovery and partitions interleaved with live traffic under drop and
corruption faults — the cluster must converge with full PosID identity,
request fan-in must stay bounded, and the wire-byte accounting must
add up."""

import pytest

from repro.errors import ReplicationError
from repro.replication.cluster import ChurnEvent, Cluster
from repro.replication.network import NetworkConfig
from repro.replication.sync import AntiEntropyPolicy
from repro.storage.store import DurableStore

#: Churn policy: quick triggers so the scripted steps exercise the
#: sync machinery, full jitter so the fleet desynchronizes.
CHURN_POLICY = AntiEntropyPolicy(max_buffered=4, max_gap_age=150.0,
                                 min_request_interval=100.0,
                                 jitter=0.5, jitter_seed=42)

FAULTY = NetworkConfig(drop_rate=0.15, corruption_rate=0.05,
                       min_latency=1, max_latency=40)


class TestHundredSiteChurn:
    def test_100_sites_converge_under_scripted_churn(self, tmp_path):
        cluster = Cluster(100, mode="sdis", config=FAULTY, seed=11,
                          policy=CHURN_POLICY)
        cluster.bootstrap(list("hello world, treedoc under churn"))
        ids = cluster.site_ids
        # One durable site rides the crash/recover arc; volatile sites
        # only ever leave or crash for good.
        durable = cluster.add_site(
            store=DurableStore(tmp_path / "durable", fsync=False))
        schedule = [
            ChurnEvent(1, "crash", site=durable.site),
            ChurnEvent(2, "crash", site=ids[7]),
            ChurnEvent(3, "partition",
                       groups=(tuple(ids[:30]),)),
            ChurnEvent(5, "join"),
            ChurnEvent(6, "leave", site=ids[13]),
            ChurnEvent(7, "recover", site=durable.site),
            ChurnEvent(8, "heal"),
            ChurnEvent(9, "join"),
            ChurnEvent(11, "leave", site=ids[20]),
            ChurnEvent(12, "partition",
                       groups=(tuple(ids[40:70]),)),
            ChurnEvent(13, "heal"),
        ]
        report = cluster.run_churn(schedule, steps=16, edits_per_step=3,
                                   pump=400, seed=5)
        assert report["actions"] == len(schedule)
        assert report["edits"] > 0
        cluster.converge(max_cycles=40)
        atoms = cluster.assert_converged(identities=True)
        assert len(atoms) > len("hello world, treedoc under churn") // 2
        assert len(cluster) == 100  # -2 crashed/left +1 joins... net

        # Bounded fan-in: rotation + jitter keep any one responder
        # from absorbing the fleet's requests.
        requests = sum(s.sync_requests_sent for s in cluster)
        fan_in = max(s.sync_requests_received for s in cluster)
        assert fan_in <= max(10, requests // 4)

        # Delta service happened under churn (not only full snapshots).
        assert sum(s.sync_deltas_applied for s in cluster) > 0

        # Per-site wire accounting covers every participant, departed
        # ones included, and totals match the network's own counter.
        per_site = cluster.wire_bytes_per_site()
        assert sum(v["sent"] for v in per_site.values()) \
            == cluster.network.bytes_delivered
        assert all(v["received"] > 0 for s, v in per_site.items()
                   if s in cluster.sites)

    def test_mid_size_churn_with_tombstone_gc(self, tmp_path):
        # Piggybacked acks under churn: the stable frontier (and the
        # purge behind it) advances with zero dedicated ack frames.
        cluster = Cluster(20, mode="sdis", config=FAULTY, seed=23,
                          policy=CHURN_POLICY)
        cluster.bootstrap(list("tombstones under churn, ho"))
        ids = cluster.site_ids
        cluster[ids[2]].delete_range(3, 9)
        schedule = [
            ChurnEvent(2, "leave", site=ids[5]),
            ChurnEvent(4, "join"),
            ChurnEvent(6, "leave", site=ids[11]),
        ]
        cluster.run_churn(schedule, steps=10, edits_per_step=2,
                          pump=300, seed=7)
        cluster.converge(max_cycles=40)
        # Stability needs every member to have spoken past the deletes
        # (an unheard member pins the frontier, by design). Steady
        # traffic — one edit each, no ack frames — is enough.
        for site in cluster:
            site.insert(0, f"t{site.site}")
        cluster.settle()
        cluster.converge(max_cycles=40)
        cluster.assert_converged(identities=True)
        # The leavers were forgotten, so the frontier moved without
        # them — and envelope/sync piggybacks alone drove it (no site
        # ever called broadcast_ack).
        assert min(s.purged_tombstones for s in cluster) > 0


class TestChurnHarness:
    def test_leave_unpins_the_stable_frontier(self):
        cluster = Cluster(3, mode="sdis", seed=31,
                          policy=AntiEntropyPolicy(jitter=0.0))
        cluster.bootstrap(list("abcdef"))
        mute = cluster.site_ids[-1]
        cluster[1].delete_range(1, 3)
        cluster.settle()
        cluster.leave_site(mute)
        # Post-leave traffic completes the 2-member frontier.
        cluster[2].insert(0, "!")
        cluster[1].insert(0, "?")
        cluster.settle()
        assert cluster[1].purged_tombstones == 2
        assert cluster[2].purged_tombstones == 2
        cluster.assert_converged(identities=True)

    def test_volatile_recover_is_refused(self):
        cluster = Cluster(3, seed=1)
        cluster.bootstrap(list("abc"))
        with pytest.raises(ReplicationError, match="durable store"):
            cluster.run_churn([
                ChurnEvent(0, "crash", site=1),
                ChurnEvent(1, "recover", site=1),
            ], steps=2, edits_per_step=0)

    def test_unknown_action_is_refused(self):
        cluster = Cluster(2, seed=1)
        with pytest.raises(ReplicationError, match="unknown churn"):
            cluster.run_churn([ChurnEvent(0, "explode", site=1)],
                              steps=1, edits_per_step=0)

    def test_leave_of_unknown_site_is_refused(self):
        cluster = Cluster(2, seed=1)
        with pytest.raises(ReplicationError):
            cluster.leave_site(99)

    def test_durable_crash_recover_round_trip(self, tmp_path):
        cluster = Cluster(2, mode="sdis", seed=33,
                          policy=AntiEntropyPolicy(
                              max_buffered=1, max_gap_age=0.0,
                              min_request_interval=0.0, jitter=0.0))
        cluster.bootstrap(list("durable churn"))
        durable = cluster.add_site(
            store=DurableStore(tmp_path / "d", fsync=False))
        cluster[1].insert(0, "!")
        cluster.anti_entropy()  # the joiner closes its gap by snapshot
        assert durable.text() == cluster[1].text()
        cluster.run_churn([
            ChurnEvent(0, "crash", site=durable.site),
            ChurnEvent(2, "recover", site=durable.site),
        ], steps=4, edits_per_step=1, pump=100, seed=3)
        cluster.converge()
        cluster.assert_converged(identities=True)
        recovered = cluster[durable.site]
        assert recovered is not durable  # a fresh process over the store
        assert recovered.text() == cluster[1].text()

    def test_anti_entropy_advances_time_for_lazy_policies(self):
        # Default (lazy) policy thresholds never expire in a quiesced
        # simulation; anti_entropy now advances simulated time itself.
        from repro.replication.site import ReplicaSite
        from tests.replication.test_delta_sync import _future_envelope

        cluster = Cluster(2, mode="sdis", seed=35,
                          policy=AntiEntropyPolicy())  # lazy defaults
        cluster.bootstrap(list("lazy"))
        cluster[1].insert(0, "!")
        cluster.settle()
        cluster[2].broadcast.on_frame(_future_envelope(1, sequence=9))
        before = cluster.network.now
        requests = cluster.anti_entropy()
        assert requests >= 1
        assert cluster.network.now > before

    def test_wire_bytes_per_site_includes_departed(self):
        cluster = Cluster(3, seed=36)
        cluster.bootstrap(list("abc"))
        gone = cluster.site_ids[-1]
        cluster.leave_site(gone)
        per_site = cluster.wire_bytes_per_site()
        assert gone in per_site
        assert per_site[gone]["received"] > 0
