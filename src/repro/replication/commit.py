"""Distributed commitment for ``flatten`` (section 4.2.1).

Flatten does not genuinely commute with edits, so the paper runs it
through a commitment protocol: every site votes, and a site votes "No"
when it has observed an insert, delete or flatten inside the subtree
that the initiator's snapshot does not cover. Any distributed
commitment protocol will do; this module implements two-phase commit.

Message flow (coordinator = the initiating site):

1. coordinator snapshots its vector clock, locks the region locally, and
   sends ``PrepareMsg`` to every other site (point-to-point);
2. each participant votes (``VoteMsg``). A Yes vote locks the region
   against *local* edits until the outcome is known — the classic 2PC
   blocking window;
3. on unanimous Yes, the coordinator applies the flatten and broadcasts
   it as a regular operation on the *causal* channel; applying it
   releases the participant's lock. Riding the causal stream is what
   makes post-flatten edits (with their renamed identifiers) arrive
   after the flatten everywhere. On any No, the coordinator sends
   ``AbortMsg`` point-to-point and everyone unlocks.

Why commit is safe: a Yes vote requires the participant's clock to
dominate the snapshot *and* its edit history to hold nothing in the
region beyond the snapshot (a history that has evicted entries also
needs the snapshot past its floor). Every edit is applied first at its origin, so a
unanimous Yes means no edit outside the snapshot exists anywhere; all
voters therefore hold identical region contents, and the deterministic
rebuild agrees (the digest in :class:`repro.core.ops.FlattenOp` double-
checks this at application time).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.disambiguator import SiteId
from repro.core.path import PosID
from repro.errors import CommitError
from repro.replication.clock import VectorClock


@dataclass(frozen=True)
class PrepareMsg:
    """Phase 1: request votes for flattening ``path``."""

    txn: str
    path: PosID
    snapshot: VectorClock
    initiator: SiteId


@dataclass(frozen=True)
class VoteMsg:
    """Phase 1 reply."""

    txn: str
    voter: SiteId
    yes: bool


@dataclass(frozen=True)
class AbortMsg:
    """Outcome broadcast when any site voted No."""

    txn: str


class CommitDecision(enum.Enum):
    """Lifecycle of a flatten transaction at its coordinator."""

    PENDING = "pending"
    COMMITTED = "committed"
    ABORTED = "aborted"


class FlattenCoordinator:
    """Coordinator state for one flatten transaction.

    The owning :class:`repro.replication.site.ReplicaSite` feeds votes in
    via :meth:`on_vote`; ``on_commit``/``on_abort`` callbacks perform the
    site-level effects (apply + causal broadcast, or abort fan-out).
    """

    def __init__(
        self,
        txn: str,
        path: PosID,
        participants: Set[SiteId],
        on_commit: Callable[[], None],
        on_abort: Callable[[], None],
    ) -> None:
        self.txn = txn
        self.path = path
        self.participants = set(participants)
        self._on_commit = on_commit
        self._on_abort = on_abort
        self.decision = CommitDecision.PENDING
        self._votes: Dict[SiteId, bool] = {}

    def on_vote(self, vote: VoteMsg) -> None:
        """Record one participant's vote; decides when all are in."""
        if self.decision is not CommitDecision.PENDING:
            return  # late vote after an early abort
        if vote.voter not in self.participants:
            raise CommitError(f"vote from non-participant {vote.voter}")
        self._votes[vote.voter] = vote.yes
        if not vote.yes:
            # One No suffices: abort immediately (standard 2PC).
            self.decision = CommitDecision.ABORTED
            self._on_abort()
            return
        if len(self._votes) == len(self.participants):
            self.decision = CommitDecision.COMMITTED
            self._on_commit()

    def decide_alone(self) -> None:
        """No other participants: commit immediately."""
        if self.participants:
            raise CommitError("decide_alone with participants present")
        self.decision = CommitDecision.COMMITTED
        self._on_commit()


def paths_overlap(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Whether two region paths (branch-bit tuples) share any slot:
    one region contains the other iff one path prefixes the other."""
    shorter = min(len(a), len(b))
    return a[:shorter] == b[:shorter]


class RegionLockTable:
    """Locked regions at one site: flatten transactions awaiting their
    outcome. Local edits inside a locked region are refused (the 2PC
    blocking window); remote causal deliveries are not gated."""

    def __init__(self) -> None:
        self._locks: Dict[str, Tuple[int, ...]] = {}

    def lock(self, txn: str, path: PosID) -> None:
        self._locks[txn] = path.bits()

    def unlock(self, txn: str) -> None:
        self._locks.pop(txn, None)

    def overlapping(self, bits: Tuple[int, ...]) -> Optional[str]:
        """Transaction id of a lock overlapping ``bits``, if any."""
        for txn, region in self._locks.items():
            if paths_overlap(region, bits):
                return txn
        return None

    def is_locked(self, bits: Tuple[int, ...]) -> bool:
        return self.overlapping(bits) is not None

    def __len__(self) -> int:
        return len(self._locks)
