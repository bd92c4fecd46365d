"""Cluster integration: multi-site editing under adverse conditions."""

import random

import pytest

from repro.errors import ReplicationError
from repro.replication.cluster import Cluster
from repro.replication.network import NetworkConfig


def _random_edits(cluster, rng, rounds, settle_every=None):
    for round_number in range(rounds):
        for site in cluster:
            for _ in range(rng.randint(0, 2)):
                if len(site) and rng.random() < 0.3:
                    site.delete(rng.randrange(len(site)))
                else:
                    site.insert(
                        rng.randint(0, len(site)),
                        f"s{site.site}r{round_number}",
                    )
        if settle_every and round_number % settle_every == 0:
            cluster.settle()


class TestConvergence:
    @pytest.mark.parametrize("mode", ["udis", "sdis"])
    @pytest.mark.parametrize("n_sites", [2, 3, 5])
    def test_concurrent_editing_converges(self, mode, n_sites):
        cluster = Cluster(n_sites, mode=mode, seed=n_sites)
        cluster.bootstrap(list("seed text here"))
        _random_edits(cluster, random.Random(n_sites), rounds=15)
        cluster.settle()
        cluster.assert_converged()

    def test_convergence_under_loss_reordering_duplication(self):
        cluster = Cluster(
            4, mode="sdis",
            config=NetworkConfig(
                drop_rate=0.25, duplicate_rate=0.15,
                min_latency=1, max_latency=300,
            ),
            seed=42,
        )
        cluster.bootstrap(list("abcdef"))
        _random_edits(cluster, random.Random(42), rounds=20)
        cluster.settle()
        content = cluster.assert_converged()
        assert content  # something survived

    def test_partition_diverges_then_heals(self):
        cluster = Cluster(4, mode="udis", seed=8)
        cluster.bootstrap(list("common"))
        with cluster.partitioned({1, 2}, {3, 4}):
            cluster[1].insert(0, "L")
            cluster[3].insert(0, "R")
            cluster.settle()
            left = cluster[1].atoms()
            right = cluster[3].atoms()
            assert left != right  # partitions diverge
            assert cluster[2].atoms() == left  # intra-group replication
            assert cluster[4].atoms() == right
        cluster.settle()
        cluster.assert_converged()

    def test_offline_site_catches_up(self):
        cluster = Cluster(3, mode="sdis", seed=4)
        cluster.bootstrap(list("abc"))
        rng = random.Random(4)
        with cluster.partitioned({3}):
            for _ in range(10):
                cluster[1].insert(rng.randint(0, len(cluster[1])), "x")
                cluster[2].insert(rng.randint(0, len(cluster[2])), "y")
            cluster.settle()
            assert len(cluster[3]) == 3  # unchanged while isolated
        cluster.settle()
        cluster.assert_converged()
        assert len(cluster[3]) == 23

    def test_assert_converged_requires_quiescence(self):
        cluster = Cluster(2, seed=1)
        cluster[1].insert(0, "a")
        with pytest.raises(ReplicationError):
            cluster.assert_converged()
        cluster.settle()
        cluster.assert_converged()

    def test_assert_converged_refuses_held_messages(self):
        # Regression: a partitioned cluster with messages held behind
        # the partition used to "pass" convergence — the held traffic
        # means some site has not seen everything, so agreement among
        # the others is vacuous.
        cluster = Cluster(3, seed=6)
        cluster.bootstrap(list("abc"))
        with cluster.partitioned({1, 2}, {3}):
            cluster[1].insert(0, "x")
            cluster.settle()
            assert cluster.network.held > 0
            with pytest.raises(ReplicationError, match="held"):
                cluster.assert_converged()
        cluster.settle()
        cluster.assert_converged()

    def test_minimum_cluster_size(self):
        with pytest.raises(ReplicationError):
            Cluster(0)


class TestPartitionedContext:
    def test_heals_on_normal_exit(self):
        cluster = Cluster(3, seed=7)
        cluster.bootstrap(list("abc"))
        with cluster.partitioned({1, 2}, {3}) as same:
            assert same is cluster
            cluster[1].insert(0, "x")
            cluster.settle()
            assert not cluster.network.reachable(1, 3)
            assert cluster.network.held > 0
        # Healed: the held envelope is released and deliverable.
        assert cluster.network.reachable(1, 3)
        assert cluster.network.held == 0
        cluster.settle()
        cluster.assert_converged()

    def test_heals_on_exception(self):
        # A failing assertion inside the block must not leak a split
        # network into teardown or the next test round.
        cluster = Cluster(3, seed=7)
        cluster.bootstrap(list("abc"))
        with pytest.raises(RuntimeError, match="mid-partition"):
            with cluster.partitioned({1}, {2, 3}):
                cluster[2].insert(0, "y")
                raise RuntimeError("boom mid-partition")
        assert cluster.network.reachable(1, 2)
        cluster.settle()
        cluster.assert_converged()

    def test_nests_like_repartition(self):
        # An inner partitioned() replaces the outer split (the network
        # holds one partition at a time); the inner exit heals fully —
        # same semantics as calling partition() twice then heal().
        cluster = Cluster(3, seed=9)
        cluster.bootstrap(list("ab"))
        with cluster.partitioned({1}, {2, 3}):
            with cluster.partitioned({1, 2}, {3}):
                assert cluster.network.reachable(1, 2)
                assert not cluster.network.reachable(2, 3)
            assert cluster.network.reachable(2, 3)
        cluster.settle()
        cluster.assert_converged()


class TestWireDiscipline:
    def test_cluster_traffic_is_bytes_only(self):
        # The acceptance bar of the bytes-first redesign: every payload
        # a cluster scenario puts on the network — envelopes, votes,
        # aborts, acks, sync traffic — is a bytes wire frame.
        from repro.core.path import ROOT
        from repro.replication.sync import AntiEntropyPolicy

        cluster = Cluster(
            3, mode="sdis", seed=11,
            policy=AntiEntropyPolicy(max_buffered=1, max_gap_age=0.0,
                                     min_request_interval=0.0),
        )
        observed = []
        original_send = cluster.network.send

        def spying_send(src, dst, payload):
            observed.append(payload)
            original_send(src, dst, payload)

        cluster.network.send = spying_send
        cluster.bootstrap(list("abcdefgh"))
        cluster[1].delete_range(0, 2)
        cluster[2].insert_text(0, list("xy"))
        cluster.settle()
        cluster[1].initiate_flatten(ROOT)
        cluster.settle()
        cluster.gossip_acks()
        late = cluster.add_site()
        cluster[1].insert_text(0, list("z "))
        cluster.anti_entropy()
        cluster.assert_converged()
        assert late.sync_responses_applied >= 1  # sync traffic included
        assert observed and all(
            isinstance(payload, bytes) for payload in observed
        )

    def test_network_rejects_object_payloads(self):
        cluster = Cluster(2, seed=1)
        with pytest.raises(ReplicationError):
            cluster.network.send(1, 2, {"not": "bytes"})


class TestOptimisticLocalEdits:
    def test_local_edit_visible_immediately(self):
        # "Common edit operations execute optimistically, with no
        # latency; replicas synchronise only in the background."
        cluster = Cluster(2, seed=1)
        cluster[1].insert(0, "now")
        assert cluster[1].atoms() == ["now"]
        assert cluster[2].atoms() == []
        cluster.settle()
        assert cluster[2].atoms() == ["now"]
