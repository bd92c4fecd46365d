"""Anti-entropy over the network: SyncRequest/SyncResponse exchanges,
the gossip policy, inherited-tombstone GC, and convergence under every
network fault at once (loss, duplication, corruption, partitions)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SyncError
from repro.replication.cluster import Cluster
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication.site import ReplicaSite
from repro.replication.sync import AntiEntropyPolicy

#: Fire on any persistent gap immediately (simulated time barely moves
#: in small scenarios, so age-based defaults would never trip).
EAGER = AntiEntropyPolicy(max_buffered=1, max_gap_age=0.0,
                          min_request_interval=0.0)

#: Transmissions the fault test corrupts on top of the random rate.
SCRIPTED_CORRUPTION = frozenset({1, 2, 5})


class TestPolicy:
    def test_quiet_site_never_requests(self):
        policy = AntiEntropyPolicy()
        assert not policy.should_request(buffered=0, gap_age=1e9)

    def test_deep_buffer_triggers_regardless_of_age(self):
        policy = AntiEntropyPolicy(max_buffered=4, max_gap_age=1e9)
        assert not policy.should_request(buffered=3, gap_age=0.0)
        assert policy.should_request(buffered=4, gap_age=0.0)

    def test_old_gap_triggers_regardless_of_depth(self):
        policy = AntiEntropyPolicy(max_buffered=100, max_gap_age=50.0)
        assert not policy.should_request(buffered=1, gap_age=49.9)
        assert policy.should_request(buffered=1, gap_age=50.0)

    def test_site_backoff_between_requests(self):
        net = SimulatedNetwork(seed=1)
        a = ReplicaSite(1, net, mode="sdis")
        c = ReplicaSite(
            3, net, mode="sdis",
            policy=AntiEntropyPolicy(max_buffered=1, max_gap_age=0.0,
                                     min_request_interval=1e9),
        )
        from repro.core.encoding import encode_operation
        from repro.replication.clock import VectorClock
        from repro.replication.wire import EnvelopeFrame

        # Force a gap by hand: an envelope from the future buffers.
        op = a.insert_text(0, list("history")).ops[0]
        payload, bits = encode_operation(op)
        c.broadcast.on_frame(
            EnvelopeFrame(1, VectorClock({1: 99}), payload, bits)
        )
        assert c.broadcast.buffered == 1
        assert c.maybe_request_sync() is True
        assert c.maybe_request_sync() is False  # inside the back-off
        assert c.sync_requests_sent == 1


class TestNetworkedCatchUp:
    def _history_cluster(self):
        """Two active sites with settled, flattened, collapsed history."""
        from repro.core.path import ROOT

        cluster = Cluster(2, mode="sdis", seed=3, policy=EAGER)
        cluster.bootstrap(list("the quick brown fox jumps over the lazy dog"))
        cluster[1].initiate_flatten(ROOT)
        cluster.settle()
        cluster[1].note_revision()
        cluster[1].collapse_cold(min_age=0, min_atoms=4)
        return cluster

    def test_late_joiner_catches_up_over_the_wire(self):
        cluster = self._history_cluster()
        late = cluster.add_site()
        # The joiner hears a post-join envelope it cannot causally
        # deliver (it missed the history), detects the gap, and asks
        # the origin for a snapshot — all over the simulated network.
        cluster[1].insert_text(0, list(">> "))
        requests = cluster.anti_entropy()
        assert requests >= 1
        assert late.sync_requests_sent >= 1
        assert cluster[1].sync_responses_sent >= 1
        assert late.sync_responses_applied == 1
        cluster.assert_converged()
        assert late.doc.posids() == cluster[1].doc.posids()
        assert late.array_leaf_count > 0  # runs landed as leaves

    def test_partitioned_late_joiner_heals_and_catches_up(self):
        cluster = self._history_cluster()
        late = cluster.add_site()
        with cluster.partitioned({1, 2}, {late.site}):
            cluster[1].insert_text(0, list("while-you-were-away "))
            cluster[2].insert_text(0, list("more "))
            cluster.settle()
            assert len(late) == 0  # isolated and history-less
        # Healing delivers the held envelopes, but they buffer: the
        # pre-join history is still missing. The anti-entropy tick
        # resolves it with one state transfer.
        cluster.anti_entropy()
        cluster.assert_converged()
        assert late.sync_responses_applied >= 1
        assert late.doc.posids() == cluster[1].doc.posids()

    def test_responder_declines_when_not_ahead(self):
        cluster = Cluster(2, mode="sdis", seed=5, policy=EAGER)
        cluster.bootstrap(list("abc"))
        # Both sites are level: a request must go unanswered.
        cluster[2].request_sync(1)
        cluster.settle()
        assert cluster[1].sync_responses_sent == 0
        assert cluster[2].sync_responses_applied == 0

    def test_stale_response_is_ignored_not_fatal(self):
        cluster = self._history_cluster()
        late = cluster.add_site()
        response = cluster[1].make_state_transfer()
        late.insert_text(0, list("local"))  # now the snapshot is stale
        late._apply_sync_response(response)
        assert late.sync_responses_ignored == 1
        assert late.sync_responses_applied == 0
        assert late.text().startswith("local")

    def test_no_gap_no_requests(self):
        cluster = self._history_cluster()
        assert cluster.anti_entropy() == 0

    def test_quiescent_joiner_requests_explicitly(self):
        # A joiner that has heard nothing has no gap to detect; the
        # explicit request covers the cold-start case.
        cluster = self._history_cluster()
        late = cluster.add_site()
        assert cluster.anti_entropy() == 0  # silence: no trigger
        assert late.request_sync(1) is True
        cluster.settle()
        assert late.sync_responses_applied == 1
        cluster.assert_converged()

    def test_request_sync_without_candidate_peer(self):
        cluster = self._history_cluster()
        late = cluster.add_site()
        assert late.request_sync() is False  # nothing buffered, no peer


class TestInheritedTombstoneGC:
    def test_synced_replica_purges_inherited_tombstones(self):
        # Regression (ROADMAP follow-on): a synced SDIS replica used to
        # hold inherited tombstones forever — it had no delete-log
        # entries for them, so only a flatten could reclaim them. They
        # now carry the snapshot's clock as their stamp, and purge once
        # it is stable.
        cluster = Cluster(2, mode="sdis", seed=7, policy=EAGER)
        cluster.bootstrap(list("abcdefghij"))
        cluster[1].delete_range(2, 6)
        cluster.settle()
        late = cluster.add_site()
        assert late.request_sync(1) is True
        cluster.settle()
        assert late.sync_responses_applied == 1
        assert late.doc.tree.id_length > len(late.doc)  # tombstones came
        assert late.purged_tombstones == 0  # ...and wait for stability
        cluster.gossip_acks()
        cluster.gossip_acks()
        assert late.purged_tombstones == 4
        # Fully purged: identifiers in use equal the visible atoms.
        assert late.doc.tree.id_length == len(late.doc)
        cluster.assert_converged()

    def test_direct_sync_from_stamps_inherited_tombstones(self):
        net = SimulatedNetwork(seed=9)
        a = ReplicaSite(1, net, mode="sdis")
        b = ReplicaSite(2, net, mode="sdis")
        a.insert_text(0, list("abcdef"))
        net.run()
        a.delete_range(1, 3)
        net.run()
        c = ReplicaSite(3, net, mode="sdis")
        stats = c.sync_from(a)
        assert stats.inherited_tombstones == 2
        # The frame shipped no delete log; one ack round purges anyway.
        assert a.make_state_transfer().delete_log == ()
        for site in (a, b, c):
            site.broadcast_ack()
        net.run()
        assert c.purged_tombstones == 2
        assert c.doc.tree.id_length == len(c.doc) == 4


class TestConvergenceUnderEverything:
    """Satellite: corruption/loss fuzz — bit flips surface only as
    DecodeError-driven retransmits, and the cluster converges under
    loss + duplication + corruption + partitions + a late joiner."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_corrupting_lossy_cluster_converges(self, seed):
        cluster = Cluster(
            3, mode="sdis",
            config=NetworkConfig(
                drop_rate=0.15, duplicate_rate=0.1, corruption_rate=0.15,
                min_latency=1, max_latency=120,
                # Scripted on top of the rate: corruption happens on
                # every seed, not only on a lucky draw.
                corrupt_transmissions=SCRIPTED_CORRUPTION,
            ),
            seed=seed, policy=EAGER,
        )
        cluster.bootstrap(list("seed"))
        rng = random.Random(seed)

        def edit_burst(round_number):
            for site in cluster:
                for _ in range(rng.randint(0, 2)):
                    if len(site) > 2 and rng.random() < 0.4:
                        site.delete(rng.randrange(len(site)))
                    else:
                        site.insert(rng.randint(0, len(site)),
                                    f"s{site.site}r{round_number}")

        for round_number in range(3):
            edit_burst(round_number)
        with cluster.partitioned({1}, {2, 3}):
            for round_number in range(3, 5):
                edit_burst(round_number)
        edit_burst(5)
        cluster.anti_entropy()
        cluster.assert_converged()
        network = cluster.network
        # Corruption happened and every damaged frame was rejected by
        # the typed decoder and retransmitted — none slipped through.
        assert network.corrupted_transmissions >= len(SCRIPTED_CORRUPTION)
        assert network.decode_rejections == network.corrupted_transmissions

    def test_late_joiner_catches_up_under_faults(self):
        cluster = Cluster(
            2, mode="sdis",
            config=NetworkConfig(drop_rate=0.2, corruption_rate=0.2,
                                 duplicate_rate=0.1),
            seed=13, policy=EAGER,
        )
        cluster.bootstrap(list("durable history line"))
        late = cluster.add_site()
        cluster[1].insert_text(0, list("new "))
        cluster.anti_entropy()
        cluster.assert_converged()
        assert late.doc.posids() == cluster[1].doc.posids()

    def test_sync_exchange_survives_corruption(self):
        # The big SyncResponse frame itself is corruption-prone; the
        # CRC rejects the damage and the transport retries it like any
        # other message.
        cluster = Cluster(
            2, mode="sdis",
            config=NetworkConfig(corruption_rate=0.5),
            seed=21, policy=EAGER,
        )
        cluster.bootstrap(list("the quick brown fox jumps"))
        late = cluster.add_site()
        assert late.request_sync(1)
        cluster.settle()
        assert late.sync_responses_applied == 1
        cluster.assert_converged()


class TestApplyPreconditions:
    def test_self_sync_refused(self):
        net = SimulatedNetwork(seed=1)
        a = ReplicaSite(1, net, mode="sdis")
        a.insert_text(0, list("abc"))
        with pytest.raises(SyncError):
            a.apply_state_transfer(a.make_state_transfer())
