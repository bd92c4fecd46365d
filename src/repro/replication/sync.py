"""State-transfer anti-entropy: catch-up by snapshot, not by replay.

A replica that is far behind — freshly joined, or reconnecting after a
long partition — would pay one causal envelope and one tree
materialization *per atom* to catch up by operation replay. The paper's
storage insight (quiescent regions need no per-atom metadata) applies
to the wire just as it does to RAM and disk: the up-to-date peer ships
its document as a v2 **state frame** (:mod:`repro.core.encoding`),
where collapsed and canonical regions travel as runs, and the receiver
loads those runs straight into :class:`repro.core.node.ArrayLeaf`
storage without ever exploding them.

Since this PR the exchange is a real network protocol
(:mod:`repro.replication.wire`): the lagging site sends a
:class:`~repro.replication.wire.SyncRequest` carrying its clock; a
peer whose clock dominates it answers with a
:class:`~repro.replication.wire.SyncResponse` — the state frame and the
sender's frontier, CRC-guarded bytes on the simulated wire.
:class:`StateTransfer` *is* that response frame (one definition, not
two); the direct
:meth:`repro.replication.site.ReplicaSite.sync_from` convenience still
exists but routes through the same encode → decode path, so its byte
accounting is the measured frame length.

The safety argument is the standard state-shipping one: the receiver
may adopt the snapshot only if the sender's causal frontier dominates
its own — then the snapshot contains every event the receiver has
applied (including the receiver's own edits, echoed back), and
replacing the document loses nothing.
:meth:`repro.replication.site.ReplicaSite.apply_state_transfer`
enforces the check and
:meth:`repro.replication.broadcast.CausalBroadcast.catch_up` adopts
the frontier so in-flight envelopes already covered by the snapshot
are filtered as duplicates.

*When* to fall back from replay to state transfer is
:class:`AntiEntropyPolicy`'s call: a replica that has been staring at
an unmet causal gap for too long (or has too many envelopes parked
behind it) stops waiting for retransmissions and asks the gap's origin
for a snapshot. :meth:`repro.replication.cluster.Cluster.anti_entropy`
ticks the policy across a whole simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.replica import SyncReport
from repro.replication.wire import StateTransfer as _WireStateTransfer
from repro.util.backoff import BackoffPolicy

#: Re-exported: the anti-entropy message is the wire's SyncResponse
#: frame under its historical name (see module docstring).
StateTransfer = _WireStateTransfer

#: Per-peer exponential backoff after a decline (or a useless
#: response), in simulated ms: first retry after 200, doubling per
#: consecutive failure up to 3200. Successful catch-up resets the
#: peer's score. The daemon's reconnect loop uses the same
#: :class:`repro.util.backoff.BackoffPolicy` implementation.
SYNC_BACKOFF = BackoffPolicy(base=200.0, factor=2.0, maximum=3200.0)


@dataclass(frozen=True)
class AntiEntropyPolicy:
    """When a lagging replica requests state transfer instead of
    waiting for replay.

    Replay is the cheap path (retransmissions usually fill a gap), so
    the policy is deliberately lazy: it fires only when a causal gap
    has *persisted* — measured by the age of the oldest buffered
    envelope's arrival, or by how many envelopes are parked behind the
    gap — and backs off between requests so a slow responder is not
    pelted with duplicate snapshot work.
    """

    #: Buffered envelopes that trigger a request regardless of age.
    max_buffered: int = 8
    #: Simulated milliseconds a causal gap may persist before a
    #: request fires.
    max_gap_age: float = 400.0
    #: Minimum simulated milliseconds between two requests from the
    #: same site.
    min_request_interval: float = 200.0
    #: Jitter fraction: trigger thresholds, request intervals and
    #: backoffs stretch by up to this share of themselves, drawn from a
    #: *seeded* stream (:data:`jitter_seed` — no wall clock anywhere),
    #: so a hundred sites detecting the same gap at the same simulated
    #: instant do not synchronize into a request storm. Zero disables.
    jitter: float = 0.5
    #: Seed of the deterministic jitter stream; each site derives an
    #: independent child stream from it (site id as the label).
    jitter_seed: int = 0

    def should_request(self, buffered: int, gap_age: float,
                       stretch: float = 0.0) -> bool:
        """The trigger test, given the current buffer depth and the
        age of the oldest unmet gap. ``stretch`` inflates the age
        threshold by that fraction (the caller's jitter draw), leaving
        the buffer-depth trigger exact."""
        if buffered <= 0:
            return False
        return (buffered >= self.max_buffered
                or gap_age >= self.max_gap_age * (1.0 + stretch))

    def backoff(self, failures: int) -> float:
        """Backoff (simulated ms) after ``failures`` consecutive
        failed exchanges with one peer (:data:`SYNC_BACKOFF`)."""
        return SYNC_BACKOFF.delay(failures)


@dataclass(frozen=True)
class SyncStats(SyncReport):
    """A site-level catch-up report: the facade's
    :class:`repro.replica.SyncReport` (atoms, wire bytes, segment
    counts — one definition, not two) plus what only the site layer
    can see."""

    #: Collapsed regions the receiver holds as array leaves after the
    #: load (runs land as leaves — they are never exploded in transit).
    loaded_leaves: int = 0
    #: Tombstones the snapshot carried: stamped with its clock, they
    #: purge once that clock is causally stable.
    inherited_tombstones: int = 0
    #: Responses/deltas this site has dropped as stale so far (arrived
    #: after replay or local progress overtook them) — surfaced here so
    #: a catch-up report shows how many exchanges were wasted before
    #: this one landed.
    stale_responses: int = 0
