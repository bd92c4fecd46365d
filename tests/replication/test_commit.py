"""The flatten commitment protocol (section 4.2.1)."""

import pytest

from repro.core.path import PosID, ROOT
from repro.errors import CommitError
from repro.replication.cluster import Cluster
from repro.replication.commit import (
    CommitDecision,
    FlattenCoordinator,
    RegionLockTable,
    VoteMsg,
    paths_overlap,
)
from repro.replication.site import RegionLockedError


class TestCoordinatorStateMachine:
    def _coordinator(self, participants, outcomes):
        return FlattenCoordinator(
            "t1", ROOT, participants,
            on_commit=lambda: outcomes.append("commit"),
            on_abort=lambda: outcomes.append("abort"),
        )

    def test_unanimous_yes_commits(self):
        outcomes = []
        coordinator = self._coordinator({2, 3}, outcomes)
        coordinator.on_vote(VoteMsg("t1", 2, True))
        assert coordinator.decision is CommitDecision.PENDING
        coordinator.on_vote(VoteMsg("t1", 3, True))
        assert coordinator.decision is CommitDecision.COMMITTED
        assert outcomes == ["commit"]

    def test_single_no_aborts_immediately(self):
        outcomes = []
        coordinator = self._coordinator({2, 3}, outcomes)
        coordinator.on_vote(VoteMsg("t1", 2, False))
        assert coordinator.decision is CommitDecision.ABORTED
        assert outcomes == ["abort"]
        # late yes is ignored
        coordinator.on_vote(VoteMsg("t1", 3, True))
        assert outcomes == ["abort"]

    def test_non_participant_vote_rejected(self):
        coordinator = self._coordinator({2}, [])
        with pytest.raises(CommitError):
            coordinator.on_vote(VoteMsg("t1", 9, True))

    def test_decide_alone(self):
        outcomes = []
        coordinator = self._coordinator(set(), outcomes)
        coordinator.decide_alone()
        assert coordinator.decision is CommitDecision.COMMITTED


class TestRegionLocks:
    def test_overlap_is_prefix_relation(self):
        assert paths_overlap((), (1, 0))
        assert paths_overlap((1, 0), (1,))
        assert paths_overlap((1, 0), (1, 0, 1))
        assert not paths_overlap((1, 0), (1, 1))

    def test_lock_table(self):
        table = RegionLockTable()
        table.lock("t1", PosID.from_bits([1, 0]))
        assert table.is_locked((1, 0, 1))
        assert table.is_locked((1,))
        assert not table.is_locked((0,))
        table.unlock("t1")
        assert not table.is_locked((1, 0))
        table.unlock("t1")  # idempotent


class TestEndToEnd:
    def test_quiescent_flatten_commits_everywhere(self):
        cluster = Cluster(3, mode="sdis", seed=5)
        cluster.bootstrap(list("abcdefgh"))
        cluster[1].delete(2)
        cluster[2].delete(4)
        cluster.settle()
        coordinator = cluster[1].initiate_flatten(ROOT)
        cluster.settle()
        assert coordinator.decision is CommitDecision.COMMITTED
        cluster.assert_converged()
        for site in cluster:
            assert site.doc.tree.id_length == len(site.doc)  # no tombstones
            assert site.locked_regions == 0

    def test_in_flight_edit_aborts_flatten(self):
        cluster = Cluster(3, mode="sdis", seed=9)
        cluster.bootstrap(list("abcdefgh"))
        cluster[2].insert(3, "Z")  # not yet delivered anywhere
        coordinator = cluster[1].initiate_flatten(ROOT)
        cluster.settle()
        assert coordinator.decision is CommitDecision.ABORTED
        cluster.assert_converged()
        assert all(site.locked_regions == 0 for site in cluster)

    def test_local_edit_blocked_during_vote_window(self):
        cluster = Cluster(2, mode="sdis", seed=3)
        cluster.bootstrap(list("abcd"))
        cluster[1].initiate_flatten(ROOT)
        # Before the decision arrives, the initiator's region is locked.
        with pytest.raises(RegionLockedError):
            cluster[1].insert(2, "x")
        with pytest.raises(RegionLockedError):
            cluster[1].delete(0)
        cluster.settle()
        # After commit the lock is gone.
        cluster[1].insert(2, "x")
        cluster.settle()
        cluster.assert_converged()

    def test_overlapping_flatten_refused_locally(self):
        cluster = Cluster(2, mode="sdis", seed=3)
        cluster.bootstrap(list("abcd"))
        cluster[1].initiate_flatten(ROOT)
        with pytest.raises(CommitError):
            cluster[1].initiate_flatten(ROOT)

    def test_concurrent_coordinators_do_not_both_commit(self):
        cluster = Cluster(2, mode="sdis", seed=3)
        cluster.bootstrap(list("abcdefgh"))
        first = cluster[1].initiate_flatten(ROOT)
        second = cluster[2].initiate_flatten(ROOT)
        cluster.settle()
        committed = [c for c in (first, second)
                     if c.decision is CommitDecision.COMMITTED]
        assert len(committed) <= 1
        cluster.assert_converged()
        assert all(site.locked_regions == 0 for site in cluster)

    def test_post_flatten_edits_use_renamed_identifiers(self):
        cluster = Cluster(3, mode="sdis", seed=5)
        cluster.bootstrap(list("abcdefgh"))
        cluster[1].delete(0)
        cluster.settle()
        coordinator = cluster[2].initiate_flatten(ROOT)
        cluster.settle()
        assert coordinator.decision is CommitDecision.COMMITTED
        # Every site edits the flattened region; all converge.
        cluster[1].insert(1, "X")
        cluster[2].insert(3, "Y")
        cluster[3].delete(0)
        cluster.settle()
        cluster.assert_converged()

    def test_flatten_on_lossy_network(self):
        from repro.replication.network import NetworkConfig

        cluster = Cluster(
            3, mode="sdis",
            config=NetworkConfig(drop_rate=0.2, duplicate_rate=0.1),
            seed=21,
        )
        cluster.bootstrap(list("abcdefgh"))
        cluster[1].delete(1)
        cluster.settle()
        coordinator = cluster[3].initiate_flatten(ROOT)
        cluster.settle()
        assert coordinator.decision in (
            CommitDecision.COMMITTED, CommitDecision.ABORTED
        )
        cluster.assert_converged()


class TestCoordinatorCrash:
    """The initiator crashes while its transaction is in flight."""

    @staticmethod
    def _flatten_then_crash(steps_until):
        cluster = Cluster(3, mode="sdis", seed=0)
        cluster.bootstrap(list("abcdefghijklmnop"))
        cluster[1].initiate_flatten(ROOT)
        while not steps_until(cluster):
            assert cluster.network.step()
        cluster.crash_site(1)
        cluster.settle()
        return cluster

    def test_votes_to_a_crashed_coordinator_are_lost_not_raised(self):
        # A participant's vote is sent after the coordinator crashed:
        # the network counts it as a loss instead of raising out of
        # settle() as an unknown destination.
        cluster = self._flatten_then_crash(
            lambda c: c.network.delivered_messages == 2)
        assert cluster.network.dropped_transmissions > 0

    @pytest.mark.xfail(
        strict=True, raises=RegionLockedError,
        reason="the commitment protocol has no deadline: participants "
               "that voted keep the region locked once the coordinator "
               "is gone (ROADMAP probe (iii))",
    )
    def test_participants_unlock_after_the_coordinator_crashes(self):
        cluster = self._flatten_then_crash(
            lambda c: c[2].locked_regions and c[3].locked_regions)
        for site in (2, 3):
            cluster[site].insert(0, "x")


class TestReorderedOutcomes:
    """A lossy, duplicating network can deliver a transaction's outcome
    before (or again after) its PrepareMsg; a vote lock taken for a
    settled transaction would never be released."""

    def test_abort_overtaking_prepare_does_not_wedge_the_lock(self):
        from repro.replication.commit import AbortMsg, PrepareMsg

        cluster = Cluster(2, mode="sdis", seed=41)
        cluster.bootstrap(list("abc"))
        victim = cluster[2]
        snapshot = victim.broadcast.clock.copy()
        # The abort arrives first (reordering)...
        victim._on_frame(1, AbortMsg("1.99"))
        # ...then the prepare it already settled.
        victim._on_frame(1, PrepareMsg("1.99", ROOT, snapshot, 1))
        assert len(victim._locks) == 0
        victim.insert(0, "!")  # must not raise RegionLockedError

    def test_duplicate_prepare_after_commit_does_not_relock(self):
        from repro.replication.commit import PrepareMsg

        cluster = Cluster(2, mode="sdis", seed=42)
        cluster.bootstrap(list("abcdef"))
        snapshot = cluster[1].broadcast.clock.copy()
        coordinator = cluster[1].initiate_flatten(ROOT)
        cluster.settle()
        assert coordinator.decision is CommitDecision.COMMITTED
        victim = cluster[2]
        # The network redelivers the old prepare after the outcome.
        victim._on_frame(1, PrepareMsg(coordinator.txn, ROOT, snapshot, 1))
        cluster.settle()  # the No re-vote lands on a decided coordinator
        assert len(victim._locks) == 0
        victim.insert(0, "!")
        cluster.settle()
        cluster.assert_converged()


class TestDecidedCoordinators:
    """An initiator keeps a coordinator only while its transaction is
    pending; once decided it is dropped, and the votes a duplicating
    network still delivers for it are ignored."""

    def test_decided_coordinators_are_dropped(self):
        from repro.replication.network import NetworkConfig

        cluster = Cluster(3, mode="sdis",
                          config=NetworkConfig(duplicate_rate=0.3), seed=17)
        cluster.bootstrap(list("abcdefghijklmnop"))
        decisions = []
        for round_number in range(20):
            initiator = cluster[1 + round_number % 3]
            if round_number % 2:
                # An edit in flight at another site: it votes No.
                cluster[1 + (round_number + 1) % 3].insert(0, "z")
            coordinator = initiator.initiate_flatten(ROOT)
            cluster.settle()
            decisions.append(coordinator.decision)
        assert set(decisions) == {CommitDecision.COMMITTED,
                                  CommitDecision.ABORTED}
        assert cluster.network.duplicated_messages > 0
        for site in cluster:
            assert site._coordinators == {}
            assert site.locked_regions == 0
        cluster.assert_converged()

    def test_vote_for_a_transaction_never_started_raises(self):
        cluster = Cluster(2, mode="sdis", seed=18)
        cluster.bootstrap(list("abc"))
        coordinator = cluster[1].initiate_flatten(ROOT)
        cluster.settle()
        assert coordinator.decision is CommitDecision.COMMITTED
        # A duplicate of a decided transaction's vote is ignored...
        cluster[1]._on_frame(2, VoteMsg(coordinator.txn, 2, True))
        # ...a vote for a transaction this site never started is not.
        with pytest.raises(CommitError):
            cluster[1]._on_frame(2, VoteMsg("1.99", 2, True))
