"""SDIS tombstone GC via causal stability (section 4.2)."""

import random

import pytest

from repro.core.encoding import decode_state, encode_operation
from repro.core.node import TOMBSTONE, slot_posid
from repro.core.ops import InsertOp
from repro.core.path import ROOT
from repro.core.treedoc import Treedoc
from repro.errors import TreeError
from repro.replication.clock import VectorClock
from repro.replication.cluster import Cluster
from repro.replication.network import NetworkConfig
from repro.replication.stability import (
    StabilityTracker,
    purge_stable_tombstones,
    purge_unlogged_tombstones,
)
from repro.replication.wire import EnvelopeFrame, decode_wire


def _tombstones_of(frame):
    """PosIDs of the tombstone slots a delta's state frame carries."""
    return [slot_posid(entry)
            for entry in decode_state(frame.state)[2].iter_entries()
            if entry.state == TOMBSTONE]


class TestStabilityTracker:
    def test_frontier_is_pointwise_minimum(self):
        tracker = StabilityTracker((1, 2, 3))
        tracker.record_ack(1, VectorClock({1: 5, 2: 2, 3: 1}))
        tracker.record_ack(2, VectorClock({1: 3, 2: 4, 3: 2}))
        tracker.record_ack(3, VectorClock({1: 4, 2: 3, 3: 3}))
        frontier = tracker.stable_frontier()
        assert (frontier.get(1), frontier.get(2), frontier.get(3)) == (3, 2, 1)

    def test_missing_member_blocks_stability(self):
        tracker = StabilityTracker((1, 2))
        tracker.record_ack(1, VectorClock({1: 9}))
        assert not tracker.is_stable(1, 1)  # site 2 never acked
        tracker.record_ack(2, VectorClock({1: 1}))
        assert tracker.is_stable(1, 1)
        assert not tracker.is_stable(1, 2)

    def test_stale_acks_merge_monotonically(self):
        tracker = StabilityTracker((1,))
        tracker.record_ack(1, VectorClock({1: 5}))
        tracker.record_ack(1, VectorClock({1: 2}))  # reordered, stale
        assert tracker.stable_frontier().get(1) == 5


class TestClusterTombstoneGC:
    def test_gossip_purges_stable_tombstones_everywhere(self):
        cluster = Cluster(3, mode="sdis", seed=1)
        cluster.bootstrap(list("abcdefghij"))
        cluster[1].delete(0)
        cluster[2].delete(3)
        cluster.settle()
        before = cluster[1].doc.tree.id_length
        assert before == 10  # tombstones retained
        cluster.gossip_acks()
        for site in cluster:
            assert site.doc.tree.id_length == 8
            assert site.purged_tombstones == 2
        cluster.assert_converged()

    def test_remint_after_purge_is_safe(self):
        # The §3.3.2 hazard: SDIS can re-mint a purged identifier. The
        # causal gossip ensures everyone purged before the re-mint's
        # insert arrives.
        cluster = Cluster(2, mode="sdis", seed=2)
        cluster.bootstrap(list("abc"))
        for _ in range(5):
            cluster[1].delete(1)
            cluster.settle()
            cluster.gossip_acks()
            cluster[1].insert(1, "B")
            cluster.settle()
            cluster.assert_converged()
        assert cluster[1].text() == "aBc"

    def test_unacked_site_blocks_purge(self):
        cluster = Cluster(3, mode="sdis", seed=3)
        cluster.bootstrap(list("abc"))
        with cluster.partitioned({1, 2}, {3}):
            cluster[1].delete(0)
            cluster.settle()
            cluster[1].broadcast_ack()
            cluster[2].broadcast_ack()
            cluster.settle()
            # Site 3 has not acknowledged: nothing may be purged.
            assert cluster[1].doc.tree.id_length == 3
        cluster.settle()
        cluster.gossip_acks()
        assert all(s.doc.tree.id_length == 2 for s in cluster)
        cluster.assert_converged()

    def test_gc_under_lossy_network_with_continuous_editing(self):
        cluster = Cluster(
            3, mode="sdis", seed=4,
            config=NetworkConfig(drop_rate=0.2, duplicate_rate=0.1),
        )
        cluster.bootstrap(list("hello world"))
        rng = random.Random(4)
        for round_number in range(12):
            for site in cluster:
                if len(site) > 2 and rng.random() < 0.5:
                    site.delete(rng.randrange(len(site)))
                else:
                    site.insert(rng.randint(0, len(site)), f"{round_number}")
            cluster.settle()
            if round_number % 3 == 0:
                cluster.gossip_acks()
        cluster.settle()
        cluster.gossip_acks()
        cluster.assert_converged()
        # After a final gossip, all tombstones are stable and purged.
        for site in cluster:
            assert site.doc.tree.id_length == len(site.doc)

    def test_gc_disabled_for_udis(self):
        cluster = Cluster(2, mode="udis", seed=5)
        cluster.bootstrap(list("abc"))
        cluster[1].delete(1)
        cluster.settle()
        # UDIS discards immediately; GC plumbing stays off: no ack
        # frame goes out, and nothing is left to purge.
        delivered = cluster.network.bytes_delivered
        cluster.gossip_acks()
        assert cluster.network.bytes_delivered == delivered
        for site in cluster:
            assert site.purged_tombstones == 0
            assert site.doc.tree.id_length == len(site.doc) == 2
        cluster.assert_converged()


def _staggered_purge_cluster():
    """Section 3.3.2 under staggered acks: site 1 has purged the
    tombstone of ``b`` (every ack reached it), sites 2 and 3 have not.
    Returns the cluster and the purged identifier; the caller runs the
    rest inside ``partitioned({1, 3}, {2})``."""
    cluster = Cluster(3, mode="sdis", seed=0)
    cluster.bootstrap(list("abc"))
    cluster.gossip_acks()
    victim = cluster[1].delete(1).posid
    cluster.settle()
    with cluster.partitioned({1, 2}, {3}):
        cluster[2].broadcast_ack()
        cluster.settle()
    return cluster, victim


class TestRemintUnderStaggeredAcks:
    def test_remint_reaching_an_unpurged_site_purges_then_applies(self):
        cluster, victim = _staggered_purge_cluster()
        with cluster.partitioned({1, 3}, {2}):
            cluster[3].broadcast_ack()
            cluster[1].broadcast_ack()
            cluster.settle()
            assert cluster[1].doc.tree.lookup(victim) is None  # purged
            assert cluster[2].doc.tree.lookup(victim).state == TOMBSTONE
            remint = cluster[1].insert(1, "B")
            assert remint.posid == victim  # the identifier came back
            cluster.settle()
        cluster.settle()
        cluster.assert_converged(identities=True)
        for site in cluster:
            assert site.text() == "aBc"
            assert site.doc.tree.id_length == 3
            assert site.purged_tombstones == 1

    def test_remint_through_a_delta_revives_the_tombstone(self):
        cluster, victim = _staggered_purge_cluster()
        with cluster.partitioned({1, 3}, {2}):
            cluster[3].broadcast_ack()
            cluster[1].broadcast_ack()
            cluster.settle()
            cluster[1].insert(1, "B")
            cluster.settle()
            # Site 2 learns the re-mint from a frontier diff instead.
            behind = cluster[2]
            delta = cluster[1].make_sync_delta(behind.broadcast.clock)
            behind._apply_sync_delta(decode_wire(delta.to_wire()))
            assert behind.text() == "aBc"
        cluster.settle()
        cluster.assert_converged(identities=True)

    def test_stale_tombstone_in_a_delta_spares_the_remint(self):
        cluster, victim = _staggered_purge_cluster()
        with cluster.partitioned({1, 3}, {2}):
            cluster[3].broadcast_ack()
            cluster[1].broadcast_ack()
            cluster.settle()
            cluster[1].insert(1, "B")
            cluster.settle()
        with cluster.partitioned({1, 2}, {3}):
            # Site 2 still holds the old tombstone and edits beside it;
            # its diff for site 3 ships that tombstone, which must not
            # delete site 3's re-minted atom.
            cluster[2].insert(2, "!")
            ahead = cluster[3]
            delta = cluster[2].make_sync_delta(ahead.broadcast.clock)
            assert victim in _tombstones_of(decode_wire(delta.to_wire()))
            ahead._apply_sync_delta(decode_wire(delta.to_wire()))
            assert ahead.text() == "aBc!"
        cluster.settle()
        cluster.assert_converged(identities=True)

    def test_insert_on_a_tombstone_it_has_not_seen_deleted_raises(self):
        cluster = Cluster(2, mode="sdis", seed=1)
        cluster.bootstrap(list("abc"))
        victim = cluster[1].delete(1).posid
        cluster.settle()
        # An insert at the identifier whose causal past lacks the
        # delete: no purge can explain it, so it stays an error.
        origin = cluster[2]
        payload, bits = encode_operation(InsertOp(victim, "Z", 2))
        sequence = origin.broadcast.clock.get(2) + 1
        frame = EnvelopeFrame(2, VectorClock({2: sequence}), payload, bits)
        with pytest.raises(TreeError, match="tombstoned identifier"):
            cluster[1]._on_message(2, frame.to_wire())


class TestStampedSnapshotTombstones:
    def test_joiner_purges_a_log_free_frame_after_one_ack_round(self):
        cluster = Cluster(2, mode="sdis", seed=6)
        cluster.bootstrap(list("abcdefghij"))
        cluster[1].delete_range(1, 4)
        cluster[2].delete(4)
        cluster.settle()
        late = cluster.add_site()
        frame = decode_wire(cluster[1].make_state_transfer().to_wire())
        assert frame.delete_log == ()
        stats = late.apply_state_transfer(frame)
        inherited = stats.inherited_tombstones
        assert inherited > 0  # the tombstones came, with no log
        assert late.doc.tree.id_length == len(late.doc) + inherited
        cluster.gossip_acks()
        for site in cluster:
            assert site.doc.tree.id_length == len(site.doc) == 6
        assert late.purged_tombstones == inherited
        cluster.assert_converged(identities=True)

    def test_a_buffered_delete_past_the_snapshot_keeps_its_record(self):
        # Site 3 holds site 1's delete in its causal buffer (it missed
        # the insert before it) when it adopts site 2's snapshot, which
        # predates the delete. The re-drained delete must stay logged:
        # an ack round that makes only the snapshot's clock stable
        # leaves its tombstone alone.
        cluster = Cluster(3, mode="sdis", seed=2)
        cluster.bootstrap(list("abcdef"))
        cluster.gossip_acks()
        cluster.partition({1, 2}, {3})
        cluster[1].insert(0, "Z")  # held for site 3 until the heal
        cluster.settle()
        cluster.partition({1, 3}, {2})
        victim = cluster[1].delete(3).posid  # held for site 2
        cluster.settle()
        late = cluster[3]
        assert late.broadcast.buffered_origins()  # the delete waits
        stats = late.sync_from(cluster[2])
        assert stats.inherited_tombstones == 0
        assert late.doc.tree.lookup(victim).state == TOMBSTONE
        cluster[1].broadcast_ack()
        cluster.settle()
        cluster.partition({2, 3}, {1})
        cluster[2].broadcast_ack()  # the snapshot's clock is now stable
        cluster.settle()
        assert late.purged_tombstones == 0
        assert late.doc.tree.lookup(victim).state == TOMBSTONE
        cluster.heal()
        cluster.settle()
        cluster.gossip_acks()
        cluster.assert_converged(identities=True)
        for site in cluster:
            assert site.text() == "Zabdef"
            assert site.doc.tree.id_length == 6

    def test_a_delta_without_new_tombstones_leaves_the_stamp(self):
        # A delta that materializes no tombstone must not push the
        # snapshot's stamp forward to its own clock: the inherited
        # tombstones purge once the snapshot's clock is stable.
        cluster = Cluster(2, mode="sdis", seed=6)
        cluster.bootstrap(list("abcdefghij"))
        cluster[1].delete_range(1, 4)
        cluster.settle()
        late = cluster.add_site()
        inherited = late.sync_from(cluster[1]).inherited_tombstones
        assert inherited == 3
        with cluster.partitioned({1}, {2, 3}):
            cluster[1].insert(0, "X")  # site 2 stays behind
            delta = cluster[1].make_sync_delta(late.broadcast.clock)
            late._apply_sync_delta(decode_wire(delta.to_wire()))
            assert late.text() == "Xaefghij"
            cluster[2].broadcast_ack()
            cluster.settle()
            assert late.purged_tombstones == inherited
            assert late.doc.tree.id_length == len(late.doc)
        cluster.settle()
        cluster.gossip_acks()
        cluster.assert_converged(identities=True)


class TestConcurrentDeletes:
    def test_an_ack_counts_only_after_its_senders_own_deletes(self):
        # Sites 1 and 2 delete 'b' concurrently. Site 2 acks site 1's
        # delete after applying it, and that ack races site 2's own
        # delete to site 1. Counted on arrival, it would let site 1
        # purge and re-mint the identifier before the late delete lands
        # there — and remove the re-minted atom at site 1 alone.
        cluster = Cluster(3, mode="sdis", seed=0, config=NetworkConfig(
            min_latency=1, max_latency=100))
        cluster.bootstrap(list("abc"))
        cluster.gossip_acks()
        with cluster.partitioned({1, 3}, {2}):
            cluster[1].delete(1)
            cluster.settle()
            concurrent = cluster[2].delete(1)
            cluster[3].broadcast_ack()
            cluster.settle()
        first = cluster[1].broadcast.clock.get(1)
        while cluster[2].broadcast.clock.get(1) < first:
            assert cluster.network.step()
        cluster[2].broadcast_ack()
        cluster[1].broadcast_ack()
        while cluster.network.step():
            if cluster[1].purged_tombstones:
                # Purged, so the concurrent delete is already applied.
                assert cluster[1].broadcast.clock.get(2) >= 2
        cluster.gossip_acks()
        assert cluster[1].purged_tombstones == 1
        assert cluster[1].insert(1, "B").posid == concurrent.posid
        cluster.settle()
        cluster.gossip_acks()
        cluster.assert_converged(identities=True)
        assert all(site.text() == "aBc" for site in cluster)


class TestPurgeFunctions:
    def test_a_purge_drops_every_record_of_the_identifier(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, list("abc"))
        victim = doc.delete(1).posid
        # Two records of one tombstone: concurrent deletes of one atom.
        log = [(victim, 1, 4), (victim, 2, 7)]
        assert purge_stable_tombstones(doc, log, VectorClock({1: 4})) == 1
        # The unstable sibling must not outlive the purge: it would
        # later purge the tombstone of an atom re-minted there.
        assert log == []
        assert doc.tree.id_length == len(doc) == 2

    def test_unlogged_purge_spares_logged_tombstones_and_leaves(self):
        doc = Treedoc(site=1, mode="sdis")
        doc.insert_text(0, [f"a{i}" for i in range(40)])
        doc.flatten_local(ROOT)
        for index in (30, 20, 10, 5):
            doc.delete(index)
        for _ in range(3):
            doc.note_revision()
        doc.collapse_cold(min_age=1, min_atoms=4)
        assert any(leaf.dead for leaf in doc.tree.array_leaves())
        kept = doc.delete(0).posid
        atoms = doc.atoms()
        log = [(kept, 1, 9)]
        assert purge_unlogged_tombstones(doc, log) == 4
        assert doc.tree.id_length == len(doc) + 1
        assert doc.tree.lookup(kept).state == TOMBSTONE
        assert doc.atoms() == atoms
        doc.check()
