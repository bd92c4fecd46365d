"""ReplicaSite internals: voting, locks, operation logging."""

import pytest

from repro.core.node import TOMBSTONE
from repro.core.path import PosID, ROOT
from repro.replication.cluster import Cluster
from repro.replication.commit import PrepareMsg
from repro.replication.site import RegionLockedError


def _synced_cluster(n=3, seed=1):
    cluster = Cluster(n, mode="sdis", seed=seed)
    cluster.bootstrap(list("abcdefgh"))
    return cluster


class TestVoting:
    def test_yes_when_caught_up_and_quiet(self):
        cluster = _synced_cluster()
        site = cluster[2]
        snapshot = site.broadcast.clock.copy()
        prepare = PrepareMsg("t", ROOT, snapshot, 1)
        assert site._vote(prepare) is True

    def test_no_when_behind_snapshot(self):
        cluster = _synced_cluster()
        # Site 1 edits; snapshot taken at site 1; site 2 hasn't seen it.
        cluster[1].insert(0, "x")
        prepare = PrepareMsg("t", ROOT, cluster[1].broadcast.clock.copy(), 1)
        assert cluster[2]._vote(prepare) is False

    def test_no_when_region_edited_beyond_snapshot(self):
        cluster = _synced_cluster()
        snapshot = cluster[2].broadcast.clock.copy()
        cluster[2].insert(0, "y")  # applied locally, beyond snapshot
        prepare = PrepareMsg("t", ROOT, snapshot, 1)
        assert cluster[2]._vote(prepare) is False

    def test_yes_when_edit_outside_region(self):
        cluster = _synced_cluster()
        snapshot = cluster[2].broadcast.clock.copy()
        cluster[2].insert(0, "y")
        # The edit went somewhere under the root; a disjoint region that
        # shares no prefix with it still votes yes. Find such a region.
        edited_bits = cluster[2].doc.posid_at(0).bits()
        disjoint = PosID.from_bits([1 - edited_bits[0], 0])
        prepare = PrepareMsg(
            "t", disjoint, snapshot.merge(cluster[2].broadcast.clock), 1
        )
        assert cluster[2]._vote(prepare) is True

    def test_no_when_overlapping_lock_held(self):
        cluster = _synced_cluster()
        cluster[1].initiate_flatten(ROOT)
        cluster.settle()  # first txn decided and released
        cluster[2].initiate_flatten(ROOT)  # pending at site 2
        snapshot = cluster[2].broadcast.clock.copy()
        prepare = PrepareMsg("t9", ROOT, snapshot, 1)
        assert cluster[2]._vote(prepare) is False


class TestRegionLockUx:
    def test_insert_adjacent_to_locked_region_refused(self):
        cluster = _synced_cluster(2)
        cluster[1].initiate_flatten(ROOT)
        with pytest.raises(RegionLockedError):
            cluster[1].insert(4, "x")
        cluster.settle()
        cluster[1].insert(4, "x")  # fine after the decision

    def test_empty_doc_insert_blocked_by_any_lock(self):
        cluster = Cluster(2, mode="sdis", seed=2)
        cluster.bootstrap(["only"])
        cluster[1].delete(0)
        cluster.settle()
        cluster[1].initiate_flatten(ROOT)
        with pytest.raises(RegionLockedError):
            cluster[1].insert(0, "x")
        cluster.settle()


class TestBatchShipping:
    def test_insert_text_ships_one_envelope(self):
        cluster = Cluster(2, seed=9)
        sent_before = cluster.network.sent_messages
        cluster[1].insert_text(0, list("hello"))
        # One broadcast to one peer = one transmission, not five.
        assert cluster.network.sent_messages == sent_before + 1
        cluster.settle()
        assert cluster.assert_converged() == list("hello")

    def test_delete_range_ships_one_envelope(self):
        cluster = _synced_cluster(2)
        sent_before = cluster.network.sent_messages
        batch = cluster[1].delete_range(2, 6)
        assert len(batch) == 4
        assert cluster.network.sent_messages == sent_before + 1
        cluster.settle()
        assert cluster.assert_converged() == list("abgh")

    def test_replace_range_ships_one_envelope(self):
        cluster = _synced_cluster(2)
        batch = cluster[1].replace_range(0, 2, list("XY"))
        assert [op.kind for op in batch.ops] == ["delete"] * 2 + ["insert"] * 2
        cluster.settle()
        assert cluster.assert_converged() == list("XYcdefgh")

    def test_batched_ops_logged_individually(self):
        cluster = _synced_cluster(2)
        batch = cluster[1].insert_text(0, list("xy"))
        cluster.settle()
        receiver = cluster[2].doc
        # Each op of the envelope landed, in batch order.
        assert receiver.text().startswith("xy")
        assert ([receiver.posid_at(i) for i in range(2)]
                == [op.posid for op in batch.ops])

    def test_batch_delete_range_respects_locks(self):
        from repro.core.path import ROOT

        cluster = _synced_cluster(2)
        cluster[1].initiate_flatten(ROOT)
        with pytest.raises(RegionLockedError):
            cluster[1].delete_range(0, 3)
        cluster.settle()
        cluster[1].delete_range(0, 3)  # fine after the decision

    def test_tombstone_gc_sees_batched_deletes(self):
        cluster = Cluster(2, mode="sdis", seed=4)
        cluster.bootstrap(list("abcdefgh"))
        cluster[1].delete_range(0, 4)
        cluster.settle()
        cluster.gossip_acks()
        cluster.gossip_acks()
        assert cluster[1].purged_tombstones > 0
        assert cluster[2].purged_tombstones > 0
        cluster.assert_converged()

    def test_checkpoint_at_a_local_delete_keeps_its_gc_record(self, tmp_path):
        # The checkpoint polled as a delete ships must already cover the
        # delete: its clock stamps the recovered tombstone, which the
        # recovered site would otherwise never purge.
        from repro.storage.store import DurableStore

        cluster = Cluster(1, mode="sdis", seed=4)
        store = DurableStore(tmp_path / "site2", checkpoint_every=1,
                             fsync=False)
        cluster.add_site(2, store=store)
        cluster.bootstrap(list("abcdefgh"))
        victim = cluster[2].delete(0)
        cluster.settle()
        recovered = cluster.add_site(2, store=cluster.crash_site(2))
        assert recovered.doc.tree.lookup(victim.posid).state == TOMBSTONE
        assert recovered.recovered_events == 0  # the checkpoint has it
        cluster.gossip_acks()
        cluster.gossip_acks()
        assert recovered.purged_tombstones == 1
        assert recovered.doc.tree.id_length == len(recovered.doc)
        cluster.assert_converged()


class TestBookkeeping:
    def test_applied_ops_logged_in_order(self):
        cluster = _synced_cluster(2)
        before = cluster[2].text()
        insert = cluster[1].insert(0, "x")
        cluster[1].delete(0)
        cluster.settle()
        # The delete applied after the insert it targets: the receiver
        # is back where it started and no longer holds the identifier.
        assert cluster[2].text() == before
        assert insert.posid not in cluster[2].doc.posids()

    def test_unhandled_message_rejected(self):
        from repro.errors import ReplicationError

        cluster = _synced_cluster(2)
        with pytest.raises(ReplicationError):
            cluster[1]._on_message(2, "garbage")

    def test_repr(self):
        cluster = _synced_cluster(2)
        assert "ReplicaSite" in repr(cluster[1])
