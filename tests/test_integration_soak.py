"""Full-stack soak: everything at once, for many rounds.

Five SDIS sites on a lossy, duplicating, reordering network; continuous
concurrent editing; periodic distributed flattens through the
commitment protocol; periodic ack gossip purging stable tombstones; a
partition and heal in the middle. At every checkpoint all replicas must
agree and every tree invariant must hold — the CRDT promise under
everything the paper's system model throws at it.
"""

import random

from repro.core.path import ROOT
from repro.replication.cluster import Cluster
from repro.replication.commit import CommitDecision
from repro.replication.network import NetworkConfig


def test_soak_everything_at_once():
    cluster = Cluster(
        5,
        mode="sdis",
        config=NetworkConfig(
            drop_rate=0.15, duplicate_rate=0.1,
            min_latency=1, max_latency=150,
        ),
        seed=20090622,  # ICDCS 2009's week, why not
    )
    cluster.bootstrap([f"w{i}" for i in range(30)])
    rng = random.Random(42)
    committed_flattens = 0

    for round_number in range(24):
        # Concurrent edit burst at every site.
        for site in cluster:
            for _ in range(rng.randint(0, 3)):
                if len(site) > 10 and rng.random() < 0.45:
                    site.delete(rng.randrange(len(site)))
                else:
                    site.insert(
                        rng.randint(0, len(site)),
                        f"s{site.site}r{round_number}",
                    )
        cluster.settle()
        cluster.assert_converged()

        if round_number == 8:
            with cluster.partitioned({1, 2}, {3, 4, 5}):
                cluster[1].insert(0, "left-side")
                cluster[4].insert(0, "right-side")
                cluster.settle()
                assert cluster[1].atoms() != cluster[4].atoms()
            cluster.settle()
            cluster.assert_converged()

        if round_number % 6 == 5:
            coordinator = cluster[(round_number % 5) + 1].initiate_flatten(ROOT)
            cluster.settle()
            assert coordinator.decision in (
                CommitDecision.COMMITTED, CommitDecision.ABORTED
            )
            if coordinator.decision is CommitDecision.COMMITTED:
                committed_flattens += 1
            cluster.assert_converged()
            assert all(site.locked_regions == 0 for site in cluster)

        if round_number % 4 == 3:
            cluster.gossip_acks()
            cluster.assert_converged()

    cluster.settle()
    cluster.gossip_acks()
    content = cluster.assert_converged()
    assert len(content) > 30  # the document grew through the churn
    # Quiescent + gossiped: every tombstone is stable and purged.
    for site in cluster:
        assert site.doc.tree.id_length == len(site.doc)
        site.doc.check()
    # At least one flatten committed during a quiet window.
    assert committed_flattens >= 1


def test_soak_udis_three_sites_heavy_churn():
    cluster = Cluster(
        3, mode="udis",
        config=NetworkConfig(drop_rate=0.3, duplicate_rate=0.2),
        seed=7,
    )
    cluster.bootstrap(list("seed"))
    rng = random.Random(7)
    for round_number in range(40):
        for site in cluster:
            for _ in range(rng.randint(0, 4)):
                if len(site) > 2 and rng.random() < 0.5:
                    site.delete(rng.randrange(len(site)))
                else:
                    # Atoms are text on the wire (the codec ships UTF-8
                    # payloads), so sites insert strings.
                    site.insert(rng.randint(0, len(site)),
                                f"r{round_number}")
        if round_number % 5 == 0:
            cluster.settle()
            cluster.assert_converged()
    cluster.settle()
    cluster.assert_converged()
    for site in cluster:
        # UDIS: no tombstones, ever.
        assert site.doc.tree.id_length == len(site.doc)
