"""A replica site: one Treedoc wired to causal broadcast and commitment.

``ReplicaSite`` is the unit of the multi-site simulations: local edits
apply immediately (optimistic, zero latency — section 6: "common edit
operations execute optimistically, with no latency; replicas synchronise
only in the background") and ship on the causal channel; remote
operations replay on causal delivery; ``initiate_flatten`` runs the
section 4.2.1 commitment protocol.

Everything a site puts on the network is **bytes**: one handler
(:meth:`_on_message`) decodes each incoming wire frame
(:mod:`repro.replication.wire`) and dispatches — causal envelopes to
the broadcast layer, commitment messages to the 2PC machinery, ack
gossip to the stability tracker, and anti-entropy traffic
(``SyncRequest``/``SyncResponse``) to the state-transfer responder.
A site is therefore also an anti-entropy *server*: any peer may ask it
for a snapshot, and :class:`repro.replication.sync.AntiEntropyPolicy`
decides when this site becomes the *client* and asks one itself.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.disambiguator import SiteId
from repro.core.encoding import encode_state
from repro.core.ops import DeleteOp, FlattenOp, InsertOp, OpBatch, Operation
from repro.core.path import PosID
from repro.core.runs import RegionFilter
from repro.core.treedoc import Treedoc
from repro.errors import (
    CommitError,
    DecodeError,
    ReplicationError,
    StaleStateError,
    StorageError,
    SyncError,
)
from repro.replication.broadcast import CausalBroadcast
from repro.replication.clock import VectorClock
from repro.replication.commit import (
    AbortMsg,
    FlattenCoordinator,
    PrepareMsg,
    RegionLockTable,
    VoteMsg,
    paths_overlap,
)
from repro.replication.network import SimulatedNetwork
from repro.replication.wire import (
    DECLINE_BUSY,
    DECLINE_NOT_AHEAD,
    DECLINE_TRY_PEER,
    AckFrame,
    EnvelopeFrame,
    SyncDecline,
    SyncDelta,
    SyncRequest,
    SyncResponse,
    WireFrame,
    decode_wire,
    encode_wire,
)
from repro.util.backoff import jittered
from repro.util.rng import derive_rng


#: Edit-history entries one site keeps (``ReplicaSite._history``). Past
#: this the oldest entry drops and the history floor rises: a delta then
#: needs a requester past the floor, a Yes vote a snapshot past it. Well
#: above a rejoin catch-up window (533-556 entries on perfbench rejoin).
HISTORY_KEEP = 4096


class RegionLockedError(ReplicationError):
    """A local edit hit a region locked by a pending flatten."""


class ReplicaSite:
    """One cooperative-editing participant."""

    def __init__(
        self,
        site: SiteId,
        network: SimulatedNetwork,
        mode: str = "udis",
        balanced: bool = True,
        policy: Optional["AntiEntropyPolicy"] = None,
        store: Optional["DurableStore"] = None,
    ) -> None:
        from repro.replication.sync import AntiEntropyPolicy

        self.site = site
        self.network = network
        self.doc = Treedoc(site, mode=mode, balanced=balanced)
        self.broadcast = CausalBroadcast(
            site, network, self._on_causal_deliver, register=False
        )
        network.register(site, self._on_message)
        self._locks = RegionLockTable()
        self._coordinators: Dict[str, FlattenCoordinator] = {}
        self._txn_counter = itertools.count()
        #: Transactions whose outcome this site has already seen. A
        #: lossy, duplicating network can deliver the AbortMsg *before*
        #: its PrepareMsg (or redeliver the prepare after the outcome);
        #: voting on a settled transaction would take a lock no later
        #: message ever releases. Bounded FIFO (txn ids, newest last).
        self._decided_txns: "OrderedDict[str, None]" = OrderedDict()
        #: The edit history behind commitment votes and frontier-diff
        #: deltas: one entry per applied op, ``(bits, origin, sequence,
        #: posid)`` — the touched region, the causal event, and for a
        #: delete its PosID (a UDIS delete leaves no trace in region
        #: state, so deltas ship and skip it by this record), else
        #: None. A whole-document touch (state adoption, delta merge,
        #: recovery) is region ``()``. FIFO past :data:`HISTORY_KEEP`:
        #: each evicted entry raises ``_history_floor``, and votes and
        #: deltas demand the other side be past the floor.
        self._history: Deque[
            Tuple[Tuple[int, ...], SiteId, int, Optional[PosID]]
        ] = deque()
        self._history_floor = VectorClock()
        #: Events at or below this frontier are known only opaquely
        #: (adopted snapshots, merged deltas, flattens, recovery): no
        #: per-operation region knowledge survives for them, so this
        #: site serves deltas only to requesters already past it.
        self._opaque_frontier = VectorClock()
        #: SDIS tombstone GC (section 4.2), on wherever the document
        #: keeps tombstones: causal-stability tracking. Acks ride the
        #: wire as AckFrames; a delete applied here is logged and purges
        #: once its event is stable, and tombstones adopted wholesale
        #: (snapshot, checkpoint, delta) purge once ``_tombstone_stamp``
        #: — the join of the clocks of the frames that carried them —
        #: is. An insert that re-mints a purged identifier at a site
        #: that has not purged it yet purges it first (:meth:`_remint`).
        self._stability: Optional["StabilityTracker"] = None
        #: Last (frontier, delete-log length, stamp) a purge ran
        #: against — the piggyback path's guard against re-sweeping the
        #: log on every delivered frame.
        self._purge_memo: Optional[Tuple[VectorClock, int,
                                         Optional[VectorClock]]] = None
        self._delete_log: List[Tuple[PosID, SiteId, int]] = []
        self._tombstone_stamp: Optional[VectorClock] = None
        self.purged_tombstones = 0
        #: Observer of every decoded explicit ack, ``(site, applied)``:
        #: a daemon installs one to track peer frontiers from the
        #: frame this site already decoded.
        self.on_ack: Optional[Callable[[SiteId, VectorClock], None]] = None
        #: Anti-entropy: when this site stops waiting for replay and
        #: asks a peer for a snapshot instead.
        self.policy = policy or AntiEntropyPolicy()
        #: Earliest simulated time the next request may fire (the
        #: jittered min-interval gate; stale/declined exchanges reset
        #: it so the policy re-triggers at once instead of waiting out
        #: another full window).
        self._next_request_at = float("-inf")
        #: Deterministic jitter stream (seeded — no wall clock): every
        #: site draws from its own child of ``policy.jitter_seed``, so
        #: a hundred sites staring at the same gap desynchronize.
        self._sync_rng = derive_rng(self.policy.jitter_seed,
                                    "sync-jitter", site)
        #: Peer rotation: consecutive-failure score and earliest-retry
        #: time per responder, fed by declines and stale responses.
        self._peer_failures: Dict[SiteId, int] = {}
        self._peer_retry_at: Dict[SiteId, float] = {}
        self._peer_hint: Optional[SiteId] = None
        self.sync_requests_sent = 0
        self.sync_requests_received = 0
        self.sync_responses_sent = 0
        self.sync_responses_applied = 0
        self.sync_responses_ignored = 0
        self.sync_responses_stale = 0
        self.sync_deltas_sent = 0
        self.sync_deltas_applied = 0
        self.sync_deltas_stale = 0
        self.sync_declines_sent = 0
        self.sync_declines_received = 0
        #: Durability (:mod:`repro.storage`): every applied envelope is
        #: journaled before it takes effect, the document checkpoints on
        #: the store's cadence, and a store with history replays it here
        #: before the site rejoins the network.
        self.store = store
        self._recovering = False
        self.recovered_events = 0
        self.reshipped_envelopes = 0
        if store is not None:
            self._recover_from_store()
            self.broadcast.journal = self._journal

    # -- local editing ------------------------------------------------------------

    def insert(self, index: int, atom: object) -> InsertOp:
        """Insert one atom (an :meth:`insert_text` of one); returns the
        operation."""
        return self.insert_text(index, (atom,)).ops[0]

    def insert_text(self, index: int, atoms: Sequence[object]) -> OpBatch:
        """Insert a consecutive run locally and broadcast it as ONE
        causal envelope; returns the batch."""
        self._check_unlocked(index, index, True, "insert")
        batch = self.doc.insert_text(index, atoms)
        self._ship(batch)
        return batch

    def delete(self, index: int) -> DeleteOp:
        """Delete one atom (a :meth:`delete_range` of one); returns the
        operation."""
        return self.delete_range(index, index + 1).ops[0]

    def delete_range(self, start: int, end: int) -> OpBatch:
        """Delete ``[start, end)`` locally and broadcast it as ONE
        causal envelope; returns the batch."""
        self._check_unlocked(start, end, False, "delete")
        batch = self.doc.delete_range(start, end)
        self._ship(batch)
        return batch

    def replace_range(self, start: int, end: int,
                      atoms: Sequence[object]) -> OpBatch:
        """Replace ``[start, end)`` by ``atoms``; one envelope carries
        the whole modify (delete + insert)."""
        self._check_unlocked(start, end, True, "replace")
        batch = self.doc.replace_range(start, end, atoms)
        self._ship(batch)
        return batch

    def _check_unlocked(self, start: int, end: int, inserting: bool,
                        verb: str) -> None:
        """Refuse an edit that touches a region locked by a pending
        flatten: any atom in ``[start, end)`` and, when the edit
        inserts, the neighbours its new identifiers land between (either
        could put them in the region): the atom at ``start - 1``, and
        the atom at ``start`` — or, for a replace, at ``end``, once the
        range is gone. One descent plus successor steps covers them all;
        with nothing locked, nothing is read."""
        if not len(self._locks):
            return
        if inserting:
            if not len(self.doc):
                raise RegionLockedError(
                    f"site {self.site}: document region locked by a "
                    "pending flatten"
                )
            end = max(end, start) + 1
            start = max(start - 1, 0)
        from repro.core.node import slot_posids

        posids = slot_posids(self.doc.tree.live_slice(start, end))
        for offset, posid in enumerate(posids):
            if self._locks.is_locked(posid.bits()):
                raise RegionLockedError(
                    f"site {self.site}: {verb} at {start + offset} hits a "
                    "region locked by a pending flatten"
                )

    def _ship(self, batch: OpBatch) -> None:
        """Broadcast one edit as one causal envelope: the whole batch
        is a single causal event."""
        if not batch.ops:
            return
        frame = self.broadcast.broadcast(batch)
        for op in batch.ops:
            self._log_op(op, self.site, frame.sequence)
        self._maybe_checkpoint()

    # -- storage maintenance --------------------------------------------------------

    def note_revision(self) -> int:
        """Mark a revision boundary on the local replica (drives the
        cold-region clock behind both flatten and collapse)."""
        return self.doc.note_revision()

    def collapse_cold(self, min_age: Optional[int] = None,
                      min_atoms: Optional[int] = None) -> List[PosID]:
        """Collapse cold canonical regions into array leaves
        (section 4.2 live mixed storage).

        Unlike :meth:`initiate_flatten`, this needs no commitment
        protocol, no locks and no broadcast: collapse preserves the
        identifier structure exactly (explode-on-touch rebuilds it), so
        each site shrinks its own storage independently while staying
        convergent. Returns the collapsed regions' paths.
        """
        return self.doc.collapse_cold(min_age=min_age, min_atoms=min_atoms)

    @property
    def array_leaf_count(self) -> int:
        """Collapsed quiescent regions currently held as arrays."""
        return self.doc.array_leaf_count

    # -- durability (repro.storage) --------------------------------------------------

    def _journal(self, data: bytes) -> None:
        """The broadcast layer's durability hook: one envelope's wire
        bytes, written (and fsynced) before the envelope ships or
        applies. The checkpoint cadence is *not* checked here — a
        checkpoint must never run while an apply is mid-flight, so the
        poll sits at the quiescent points (:meth:`_maybe_checkpoint`).
        """
        from repro.storage.wal import RECORD_ENVELOPE

        self.store.append(RECORD_ENVELOPE, data)

    def checkpoint(self) -> None:
        """Write a durable checkpoint now (the store's cadence normally
        drives this via :meth:`_maybe_checkpoint`). The checkpoint *is*
        a state-transfer frame — the same snapshot an anti-entropy peer
        would receive — so recovery and sync share one format."""
        if self.store is None:
            raise StorageError(f"site {self.site} has no durable store")
        self.store.write_checkpoint(self.make_state_transfer().to_wire(),
                                    self.doc.mint_counters())

    def _maybe_checkpoint(self) -> None:
        """Poll the checkpoint cadence at a quiescent point: after a
        local edit shipped, or after one network delivery fully
        processed — never mid-apply, so the WAL rotation can only prune
        records whose effects the new checkpoint contains."""
        if self.store is None or self._recovering:
            return
        if self.store.checkpoint_due():
            self.checkpoint()

    def _recover_from_store(self) -> None:
        """Startup recovery: newest valid checkpoint + WAL tail replay.

        The checkpoint frame restores document and frontier, and its
        tombstones take the checkpoint's clock as their stamp; the
        tail's envelopes re-enter through the ordinary causal delivery
        path (the clock filters the ones the checkpoint already
        covers); own-origin tail envelopes are re-broadcast,
        because the journal writes before the network sends — a crash
        between the two must not lose the edit (receivers that did get
        the original drop the duplicate by clock). Counter restoration
        (op_seq, UDIS mint counter) is what keeps post-restart
        identifiers globally fresh.
        """
        from repro.storage.wal import RECORD_ENVELOPE

        self._recovering = True
        own_payloads: List[bytes] = []
        own_events: List[object] = []

        def replay(record) -> None:
            if record.kind != RECORD_ENVELOPE:
                return
            frame = decode_wire(record.payload)
            if not isinstance(frame, EnvelopeFrame):
                raise DecodeError(
                    "WAL envelope record holds a non-envelope frame"
                )
            if self.broadcast.has_delivered(frame.origin, frame.sequence):
                return
            if frame.origin == self.site:
                own_payloads.append(record.payload)
                own_events.append(frame.decode_payload())
            self.broadcast.on_frame(frame)
            self.recovered_events += 1

        try:
            checkpoint, recovered = self.store.restore(self.doc)
            if checkpoint is not None:
                self.broadcast.clock = checkpoint.clock.copy()
                self._stamp_tombstones(checkpoint.clock)
            recovered.replay(replay)
            self.doc.restore_counters(recovered.meta, own_events)
            # The edit history did not witness the checkpoint's edits.
            self._note_opaque(self.broadcast.clock)
        finally:
            self._recovering = False
        for payload in own_payloads:
            self.network.broadcast(self.site, payload)
            self.reshipped_envelopes += 1

    def crash(self) -> Optional["DurableStore"]:
        """Simulate process death: detach from the network with no
        graceful shutdown whatsoever — nothing flushes, nothing
        checkpoints (appends were already fsynced individually). The
        abandoned object must not be used again; resurrect the site by
        constructing a fresh one over the returned store."""
        self.network.disconnect(self.site)
        return self.store

    # -- state-transfer anti-entropy ------------------------------------------------

    def make_state_transfer(self) -> SyncResponse:
        """Snapshot this site's document and causal frontier for a
        lagging peer (the sender half of the anti-entropy exchange).
        The delete log stays home: the receiver stamps the frame's
        tombstones with its clock instead."""
        return SyncResponse(
            self.site,
            self.broadcast.clock.copy(),
            self.doc.capture_state(),
        )

    def sync_from(self, peer: "ReplicaSite") -> "SyncStats":
        """Catch up to ``peer`` by state transfer instead of replay.

        A convenience for tests and tools that routes through the
        *same wire path* as the networked exchange: the peer's response
        frame is encoded to bytes and decoded back before application,
        so the byte accounting is the measured frame length and any
        encode/decode defect surfaces here too. In a live simulation
        prefer :meth:`request_sync` — the request/response then crosses
        the simulated network with its losses and corruption.
        """
        frame = decode_wire(peer.make_state_transfer().to_wire())
        return self.apply_state_transfer(frame)

    def apply_state_transfer(self, transfer: SyncResponse) -> "SyncStats":
        """Adopt a peer's state snapshot (the receiver half).

        Verifies the causal-domination precondition, replaces the
        document, adopts the frontier (buffered envelopes covered by
        the snapshot are dropped as duplicates, newer ones re-drain),
        and conservatively poisons future flatten votes for snapshots
        older than the adopted frontier. Inherited SDIS tombstones are
        stamped with the snapshot's clock and purge as soon as causal
        stability reaches it — no flatten required. A delete log the
        frame carries (older writers sent one) is ignored: the stamp
        covers every delete in it.
        """
        from repro.replication.sync import SyncStats

        if transfer.site == self.site:
            raise SyncError(f"site {self.site}: cannot sync from itself")
        if not transfer.clock.dominates(self.broadcast.clock):
            lagging = ", ".join(
                f"origin {origin}: offered {transfer.clock.get(origin)}"
                f" < local {count}"
                for origin, count in sorted(self.broadcast.clock.items())
                if transfer.clock.get(origin) < count
            )
            raise StaleStateError(
                f"site {self.site}: snapshot from {transfer.site} does not "
                f"dominate this replica ({lagging}) — catch up by replay, "
                "or sync from a peer that is strictly ahead"
            )
        atoms = self.doc.load_state(transfer.state)
        tree = self.doc.tree
        inherited = tree.id_length - tree.live_length
        # Stamp before the buffer re-drains: deletes it applies past the
        # snapshot are logged on top of the stamp, and purge on their
        # own stability.
        self._stamp_tombstones(transfer.clock)
        self.broadcast.catch_up(transfer.clock)
        self._purge_stable()
        self._note_opaque(transfer.clock)
        self._peer_failures.pop(transfer.site, None)
        if self.store is not None and not self._recovering:
            # Adopting a snapshot rewrites the document wholesale; no
            # WAL record describes that, so persist it as an immediate
            # checkpoint (a crash before this completes simply loses
            # the adoption — the policy will re-sync).
            self.checkpoint()
        return SyncStats(
            atoms=atoms,
            wire_bytes=transfer.wire_bytes,
            run_segments=transfer.state.run_segments,
            op_segments=transfer.state.op_segments,
            loaded_leaves=self.doc.array_leaf_count,
            inherited_tombstones=inherited,
            stale_responses=self.sync_responses_stale,
        )

    def request_sync(self, peer: Optional[SiteId] = None) -> bool:
        """Send a ``SyncRequest``; returns False when no candidate peer
        exists. The response arrives over the network; run the
        simulation to receive it.

        Default peer selection rotates rather than fixates: a
        responder hint (from a ``SyncDecline``) first, then a
        *reachable* origin of a buffered envelope — each is provably
        ahead of this site — skipping peers still in backoff, chosen by
        the seeded jitter stream so a hundred laggards spread their
        requests instead of pelting one responder. When every buffered
        origin is unreachable (crashed, or across a partition), any
        reachable peer serves as fallback: it may well have applied the
        missing events. An explicit ``peer`` bypasses all filters.
        """
        now = self.network.now
        if peer is None:
            peer = self._pick_sync_peer(now)
            if peer is None:
                return False
        request = SyncRequest(self.site, self.broadcast.clock.copy())
        self.network.send(self.site, peer, encode_wire(request))
        self._next_request_at = now + self._jittered(
            self.policy.min_request_interval
        )
        self.sync_requests_sent += 1
        return True

    def _pick_sync_peer(self, now: float) -> Optional[SiteId]:
        """Rotation: hint > reachable buffered origin > any reachable
        peer; backoff filters each tier; None with no gap at all."""
        candidates: List[SiteId] = []
        for origin in self.broadcast.buffered_origins():
            if origin not in candidates and origin != self.site:
                candidates.append(origin)
        if not candidates:
            return None  # no causal gap: nothing to ask anyone for
        hint = self._peer_hint
        if (hint is not None and hint != self.site
                and self.network.reachable(self.site, hint)
                and self._retry_ok(hint, now)):
            self._peer_hint = None
            return hint
        pool = [p for p in candidates
                if self.network.reachable(self.site, p)
                and self._retry_ok(p, now)]
        if not pool:
            # Every provably-ahead origin is dark: fall back to any
            # reachable peer not in backoff (it may have the history).
            pool = [p for p in self.network.sites
                    if p != self.site and p not in candidates
                    and self.network.reachable(self.site, p)
                    and self._retry_ok(p, now)]
        if not pool:
            # Last resort — ignore backoff rather than stay wedged: a
            # gap-blocked site's only way forward is through a peer.
            pool = [p for p in self.network.sites
                    if p != self.site
                    and self.network.reachable(self.site, p)]
        if not pool:
            return None
        if len(pool) == 1:
            return pool[0]
        return pool[self._sync_rng.randrange(len(pool))]

    def _retry_ok(self, peer: SiteId, now: float) -> bool:
        return now >= self._peer_retry_at.get(peer, float("-inf"))

    def _jittered(self, interval: float) -> float:
        """Stretch an interval by the policy's seeded jitter draw
        (the shared :func:`repro.util.backoff.jittered` rule)."""
        return jittered(interval, self.policy.jitter, self._sync_rng)

    def maybe_request_sync(self) -> bool:
        """Apply the anti-entropy policy: request a snapshot when the
        oldest causal gap has persisted too long (or parked too many
        envelopes), with jittered back-off between requests. Returns
        whether a request went out. Driven by
        :meth:`repro.replication.cluster.Cluster.anti_entropy`.
        """
        blocked_since = self.broadcast.blocked_since
        if blocked_since is None:
            return False
        now = self.network.now
        stretch = (self.policy.jitter * self._sync_rng.random()
                   if self.policy.jitter > 0.0 else 0.0)
        if not self.policy.should_request(
            self.broadcast.buffered, now - blocked_since, stretch
        ):
            return False
        if now < self._next_request_at:
            return False
        return self.request_sync()

    def make_sync_delta(self, base: VectorClock) -> Optional[SyncDelta]:
        """Build the frontier-diff answer for a requester at ``base``,
        or None when this site cannot diff soundly.

        Soundness demands per-operation knowledge of every event past
        ``base``: the requester must already be past this site's opaque
        frontier (snapshots, deltas, flattens, recovery leave no region
        trail) *and* past its history floor (an evicted delete could
        otherwise resurrect through a shipped region). Every flatten
        and whole-document entry sits at or below the opaque frontier,
        so the window past ``base`` holds only inserts and deletes, and
        the answer is exact: one tree-walk frame of the live tree
        pruned to the regions they touched, plus their delete records.
        """
        if not base.dominates(self._opaque_frontier.merge(
                self._history_floor)):
            return None
        regions: List[Tuple[int, ...]] = []
        delete_log: List[Tuple[PosID, SiteId, int]] = []
        for bits, origin, sequence, posid in self._history:
            if sequence > base.get(origin):
                regions.append(bits)
                if posid is not None:
                    delete_log.append((posid, origin, sequence))
        state = encode_state(self.doc.tree, self.doc.mode, self.site, "",
                             RegionFilter(regions))
        return SyncDelta(self.site, self.broadcast.clock.copy(),
                         base.copy(), state, tuple(delete_log))

    def _answer_sync_request(self, request: SyncRequest) -> None:
        """The anti-entropy responder: frontier-diff when sound, full
        snapshot when strictly ahead, graceful decline otherwise.

        The requester's clock is itself an acknowledgement (it has
        applied everything in it), so it feeds the stability tracker —
        the piggyback that keeps tombstone GC advancing without
        dedicated ack traffic.
        """
        self.sync_requests_received += 1
        self._record_ack(request.requester, request.clock)
        if not self.network.reachable(self.site, request.requester):
            # The requester crashed, left, or fell behind a partition
            # while its request was in flight: nobody to answer. (It
            # will rotate to another peer if it comes back wanting.)
            return
        clock = self.broadcast.clock
        if request.clock.dominates(clock):
            # Includes equality: nothing to offer. Point at the origin
            # of our own oldest buffered envelope if we have one — a
            # site ahead of both of us.
            self._send_decline(request.requester, DECLINE_NOT_AHEAD)
            return
        strictly = clock.dominates(request.clock)
        if strictly and not any(True for _ in request.clock.items()):
            # A fresh joiner has no frontier to diff from: bootstrap it
            # with the full snapshot (collapsed runs load straight into
            # array leaves — the cheap path) rather than a whole-
            # document "diff" merged slot by slot.
            self.network.send(
                self.site, request.requester,
                self.make_state_transfer().to_wire()
            )
            self.sync_responses_sent += 1
            return
        delta = self.make_sync_delta(request.clock)
        if delta is not None:
            if strictly:
                full = self.make_state_transfer()
                if delta.wire_bytes >= full.wire_bytes:
                    # The diff lost to the whole document (huge window,
                    # tiny doc): ship the cheaper full snapshot.
                    self.network.send(self.site, request.requester,
                                      full.to_wire())
                    self.sync_responses_sent += 1
                    return
            self.network.send(self.site, request.requester, delta.to_wire())
            self.sync_deltas_sent += 1
            return
        if strictly:
            self.network.send(
                self.site, request.requester,
                self.make_state_transfer().to_wire()
            )
            self.sync_responses_sent += 1
            return
        # Concurrent frontiers and no sound diff: decline with a hint.
        # A diff is tried first even while this site fights a gap of its
        # own: two sites that each lost one envelope from the other are
        # both gap-blocked and concurrent, and declining BUSY there
        # before looking would starve both of the repair forever.
        if self.broadcast.blocked_since is not None:
            self._send_decline(request.requester, DECLINE_BUSY)
        else:
            self._send_decline(request.requester, DECLINE_NOT_AHEAD)

    def _send_decline(self, requester: SiteId, reason: int) -> None:
        hint: Optional[SiteId] = None
        for origin in self.broadcast.buffered_origins():
            if origin != requester and origin != self.site:
                hint = origin
                break
        if hint is not None and reason == DECLINE_NOT_AHEAD:
            reason = DECLINE_TRY_PEER
        self.network.send(
            self.site, requester,
            encode_wire(SyncDecline(self.site, reason, hint))
        )
        self.sync_declines_sent += 1

    def _apply_sync_response(self, response: SyncResponse) -> None:
        """Adopt a snapshot that arrived over the network, unless this
        site advanced past it while the response was in flight. Its
        clock is the responder's ack, recorded last: once adopted, the
        snapshot's events are delivered here, so the ack counts."""
        try:
            self.apply_state_transfer(response)
        except StaleStateError:
            # Replay caught us up, or we edited since the request. Not
            # silent anymore: count it, score the peer, and reopen the
            # request window so the policy re-triggers at once instead
            # of waiting out a full gap-age window again.
            self.sync_responses_stale += 1
            self.sync_responses_ignored += 1
            self._note_sync_failure(response.site)
        except SyncError:
            self.sync_responses_ignored += 1
        else:
            self.sync_responses_applied += 1
        self._record_ack(response.site, response.clock)

    def _apply_sync_delta(self, delta: SyncDelta) -> None:
        """Merge a frontier-diff that arrived over the network.

        Safety is per-origin coverage, not whole-frontier domination:
        the sender's clock must be past *our* opaque frontier and
        history floor (else an event we know only opaquely, or a delete
        we no longer remember, could collide with the merge) — but
        concurrent local progress the sender never saw survives,
        because merging is a join, not a replacement.
        """
        self._record_ack(delta.site, delta.clock)
        if not delta.clock.dominates(self._opaque_frontier.merge(
                self._history_floor)):
            self.sync_deltas_stale += 1
            self._note_sync_failure(delta.site)
            return
        pre = self.broadcast.clock.copy()
        if delta.clock.dominates(pre) and pre.dominates(delta.clock):
            return  # equal frontiers: raced duplicate, nothing to do
        # Identifiers we deleted but the sender has not seen: the merge
        # must not resurrect them. (A delete the sender has seen and an
        # atom it holds live there anyway is a re-mint: every delete
        # not in this set is in the delta's past, as the clock covers
        # the history floor.)
        skip = frozenset(
            posid for _, origin, sequence, posid in self._history
            if posid is not None and sequence > delta.clock.get(origin)
        )
        merged = self.doc.merge_segments(delta.state, skip=skip)
        if merged.revived:
            self._forget_deletes(frozenset(merged.revived))
        if merged.tombstones:
            # Tombstones the frame materialized have no log record
            # here: the delta's clock covers their deletes.
            self._stamp_tombstones(delta.clock, merge=True)
        for posid, origin, sequence in delta.delete_log:
            if self.broadcast.has_delivered(origin, sequence):
                continue  # already applied this delete
            op = DeleteOp(posid, origin)
            self.doc.apply(op)
            self._log_op(op, origin, sequence)
        self.broadcast.catch_up(delta.clock)
        # The sender's ack again: with its events delivered, it counts.
        self._record_ack(delta.site, delta.clock)
        self._note_opaque(delta.clock, known=pre)
        self._peer_failures.pop(delta.site, None)
        self.sync_deltas_applied += 1
        if self.store is not None and not self._recovering:
            # Same rule as adopting a snapshot: no WAL record describes
            # the merge, so persist it as an immediate checkpoint.
            self.checkpoint()

    def _apply_sync_decline(self, frame: SyncDecline) -> None:
        """A responder refused: back it off, remember its hint, and
        reopen the request window so rotation happens now."""
        self.sync_declines_received += 1
        self._note_sync_failure(frame.site)
        if frame.hint is not None and frame.hint != self.site:
            self._peer_hint = frame.hint

    def _note_sync_failure(self, peer: SiteId) -> None:
        failures = self._peer_failures.get(peer, 0) + 1
        self._peer_failures[peer] = failures
        self._peer_retry_at[peer] = self.network.now + self._jittered(
            self.policy.backoff(failures)
        )
        self._next_request_at = self.network.now

    # -- flatten / commitment -------------------------------------------------------

    def initiate_flatten(self, path: PosID) -> FlattenCoordinator:
        """Start the commitment protocol to flatten the subtree at
        ``path``. Returns the coordinator; its ``decision`` settles once
        the network delivers the votes (run the network to quiescence).
        """
        bits = path.bits()
        if self._locks.is_locked(bits):
            raise CommitError(
                f"site {self.site}: region {path!r} already has a pending flatten"
            )
        txn = f"{self.site}.{next(self._txn_counter)}"
        snapshot = self.broadcast.clock.copy()
        participants = {s for s in self.network.sites if s != self.site}
        coordinator = FlattenCoordinator(
            txn,
            path,
            participants,
            on_commit=lambda: self._commit_flatten(txn, path),
            on_abort=lambda: self._abort_flatten(txn),
        )
        self._coordinators[txn] = coordinator
        self._locks.lock(txn, path)
        if not participants:
            coordinator.decide_alone()
            return coordinator
        prepare = encode_wire(PrepareMsg(txn, path, snapshot, self.site))
        for participant in participants:
            self.network.send(self.site, participant, prepare)
        return coordinator

    def _commit_flatten(self, txn: str, path: PosID) -> None:
        op = self.doc.make_flatten(path)
        op = FlattenOp(op.path, op.digest, op.origin, txn=txn)
        self.doc.apply_flatten(op)
        self._locks.unlock(txn)
        self._note_txn_decided(txn)
        # A flatten claims no seq number: its batch's range is empty.
        seq = self.doc.op_seq
        self._ship(OpBatch((op,), self.site, seq, seq))

    def _abort_flatten(self, txn: str) -> None:
        self._locks.unlock(txn)
        self._note_txn_decided(txn)
        abort = encode_wire(AbortMsg(txn))
        for participant in self.network.sites:
            if participant != self.site:
                self.network.send(self.site, participant, abort)

    _DECIDED_TXN_KEEP = 256

    def _note_txn_decided(self, txn: str) -> None:
        """Remember a settled transaction so a reordered or duplicated
        ``PrepareMsg`` arriving after its outcome cannot take a lock
        that nothing will ever release, and a late ``VoteMsg`` finds no
        coordinator yet raises nothing (the initiator already handed
        its coordinator to the caller, and keeps none once decided)."""
        self._coordinators.pop(txn, None)
        self._decided_txns[txn] = None
        self._decided_txns.move_to_end(txn)
        while len(self._decided_txns) > self._DECIDED_TXN_KEEP:
            self._decided_txns.popitem(last=False)

    def _vote(self, prepare: PrepareMsg) -> bool:
        """Section 4.2.1: vote No when this site has executed an insert,
        delete or flatten within the subtree that the initiator's
        snapshot does not cover — or when it is not yet caught up with
        the snapshot (its region contents could then differ), or when
        the snapshot is below the history floor (an evicted entry past
        the snapshot could have touched the region)."""
        snapshot = prepare.snapshot
        if not (self.broadcast.clock.dominates(snapshot)
                and snapshot.dominates(self._history_floor)):
            return False
        region = prepare.path.bits()
        if self._locks.overlapping(region) is not None:
            return False
        return not any(sequence > snapshot.get(origin)
                       and paths_overlap(bits, region)
                       for bits, origin, sequence, _ in self._history)

    # -- message handling ------------------------------------------------------------

    def _on_message(self, src: SiteId, data: bytes) -> None:
        """The single network entry point: decode the wire frame, then
        dispatch. A :class:`repro.errors.DecodeError` (bit flip in
        transit) propagates to the network, which counts it as loss
        and retransmits."""
        if not isinstance(data, (bytes, bytearray)):
            raise ReplicationError(
                f"site {self.site}: non-bytes delivery {data!r} — the "
                "network carries wire frames only"
            )
        self._on_frame(src, decode_wire(data))
        # Quiescent point: the delivery (and everything it cascaded
        # into) is fully applied and journaled — safe to checkpoint.
        self._maybe_checkpoint()

    def _on_frame(self, src: SiteId, frame: WireFrame) -> None:
        if isinstance(frame, EnvelopeFrame):
            self.broadcast.on_frame(frame)
            # Piggybacked ack: the envelope's clock *is* the origin's
            # acknowledgement (it has applied everything in it), so the
            # stable frontier advances under steady traffic with no
            # dedicated ack frames at all.
            self._record_ack(frame.origin, frame.clock)
        elif isinstance(frame, AckFrame):
            self._record_ack(frame.site, frame.applied)
            if self.on_ack is not None:
                self.on_ack(frame.site, frame.applied)
        elif isinstance(frame, SyncRequest):
            self._answer_sync_request(frame)
        elif isinstance(frame, SyncResponse):
            self._apply_sync_response(frame)
        elif isinstance(frame, SyncDelta):
            self._apply_sync_delta(frame)
        elif isinstance(frame, SyncDecline):
            self._apply_sync_decline(frame)
        elif isinstance(frame, PrepareMsg):
            if frame.txn in self._decided_txns:
                # The outcome overtook this prepare (reordered abort) or
                # the prepare is a duplicate of a settled transaction:
                # vote No without locking — a lock taken now would never
                # be released, the outcome has already come and gone.
                yes = False
            else:
                yes = self._vote(frame)
                if yes:
                    self._locks.lock(frame.txn, frame.path)
            self.network.send(
                self.site, frame.initiator,
                encode_wire(VoteMsg(frame.txn, self.site, yes)),
            )
        elif isinstance(frame, VoteMsg):
            coordinator = self._coordinators.get(frame.txn)
            if coordinator is not None:
                coordinator.on_vote(frame)
            elif frame.txn not in self._decided_txns:
                raise CommitError(f"vote for unknown transaction {frame.txn}")
        elif isinstance(frame, AbortMsg):
            self._locks.unlock(frame.txn)
            self._note_txn_decided(frame.txn)
        else:  # pragma: no cover - decode_wire yields only the above
            raise ReplicationError(f"unhandled wire frame {frame!r}")

    def _on_causal_deliver(self, origin: SiteId, payload: object) -> None:
        if isinstance(payload, (InsertOp, DeleteOp, FlattenOp)):
            # A bare v1 operation: old logs and older peers still carry
            # them; nothing here writes one.
            payload = OpBatch((payload,), origin, 0, 0)
        elif not isinstance(payload, OpBatch):
            raise ReplicationError(f"unexpected causal payload {payload!r}")
        past = self.broadcast.delivering
        self.doc.apply_batch(payload,
                             lambda posid: self._remint(posid, past))
        sequence = self.broadcast.clock.get(origin)
        for op in payload.ops:
            self._log_op(op, origin, sequence)
            if isinstance(op, FlattenOp) and op.txn is not None:
                # The committed flatten is the outcome message: release
                # the vote lock.
                self._locks.unlock(op.txn)
                self._note_txn_decided(op.txn)

    # -- SDIS tombstone garbage collection (section 4.2) --------------------------

    def broadcast_ack(self) -> None:
        """Gossip this site's applied clock (drives the stable frontier).

        Call periodically (the cluster harness does) on an SDIS
        document; a no-op under UDIS. Acks are idempotent,
        order-insensitive clock merges, so they travel as plain wire
        frames — no causal ordering, no clock tick.
        """
        if not self.doc.keeps_tombstones:
            return
        applied = self.broadcast.clock.copy()
        self._record_ack(self.site, applied)
        self.network.broadcast(
            self.site, encode_wire(AckFrame(self.site, applied))
        )

    def _record_ack(self, site: SiteId, applied: VectorClock) -> None:
        """Fold an acknowledgement — explicit or piggybacked — into the
        stability tracker, and purge whatever just became stable.

        Membership follows the network roster (churn admits members
        conservatively: an unheard-from joiner pins the frontier until
        it speaks); the site's own applied clock counts as an ack too,
        so its progress never holds its own frontier back. Purging is
        skipped when neither the frontier nor the delete log moved —
        the piggyback path runs on every delivery, and must cost a
        clock merge, not a log sweep.

        An ack counts only once this site has delivered the acker's own
        events up to it. The acker may have deleted an atom
        concurrently with a delete it acknowledges; its own delete is
        below its ack, so counting the ack early could purge the
        tombstone, let the identifier be re-minted, and then let the
        late concurrent delete remove the new atom here alone. A
        skipped ack is not lost: the acker's later clocks carry it."""
        from repro.replication.stability import StabilityTracker

        if not self.doc.keeps_tombstones:
            return
        if self._stability is None:
            self._stability = StabilityTracker(tuple(self.network.sites))
        tracker = self._stability
        tracker.ensure_member(self.site)
        for member in self.network.sites:
            tracker.ensure_member(member)
        if self.broadcast.clock.get(site) >= applied.get(site):
            tracker.record_ack(site, applied)
        tracker.record_ack(self.site, self.broadcast.clock)
        self._purge_stable()

    def _purge_stable(self) -> None:
        """Purge what the stable frontier now covers: logged deletes
        one by one, then — once the frontier dominates the stamp — the
        stamped tombstones in one walk."""
        from repro.replication.stability import (
            purge_stable_tombstones,
            purge_unlogged_tombstones,
        )

        if self._stability is None:
            return
        frontier = self._stability.stable_frontier()
        memo = (frontier, len(self._delete_log), self._tombstone_stamp)
        if memo == self._purge_memo:
            return
        self.purged_tombstones += purge_stable_tombstones(
            self.doc, self._delete_log, frontier
        )
        stamp = self._tombstone_stamp
        if stamp is not None and frontier.dominates(stamp):
            self.purged_tombstones += purge_unlogged_tombstones(
                self.doc, self._delete_log
            )
            self._tombstone_stamp = None
        self._purge_memo = (frontier, len(self._delete_log),
                            self._tombstone_stamp)

    def _stamp_tombstones(self, clock: VectorClock,
                          merge: bool = False) -> None:
        """Tombstones just adopted wholesale purge once ``clock`` is
        stable. A snapshot or checkpoint replaced the document, so its
        stamp replaces the delete log and any older stamp (its clock
        dominates both); a delta merge joins its clock into the stamp.
        O(1): the tombstones are found only when the stamp is stable."""
        if not merge:
            self._delete_log = []
            self._tombstone_stamp = None
        tree = self.doc.tree
        if tree.id_length == tree.live_length:
            return
        stamp = self._tombstone_stamp
        self._tombstone_stamp = (clock.copy() if stamp is None
                                 else stamp.merge(clock))

    def _remint(self, posid: PosID, past: VectorClock) -> bool:
        """Section 3.3.2: an insert at ``posid`` whose causal past is
        ``past`` arrived where this site still holds a tombstone. When
        the tombstone's delete is in that past, the inserting site saw
        the delete: it re-minted the identifier after purging it as
        stable, a purge this site has not made yet. True tells the
        caller to purge the tombstone and apply (its records are
        forgotten here); False when the delete is known here and not
        in that past. A tombstone with no record is covered by the
        stamp — its delete is in that past, as the inserting site could
        not have purged it otherwise."""
        known = [(origin, sequence)
                 for logged, origin, sequence in self._delete_log
                 if logged == posid]
        if known and not any(sequence <= past.get(origin)
                             for origin, sequence in known):
            return False
        self._forget_deletes(frozenset((posid,)))
        return True

    def _forget_deletes(self, posids: frozenset) -> None:
        """Tombstones at ``posids`` were purged for a re-mint: count the
        purges and drop every delete record of those identifiers, so
        none can later purge the re-minted atom's own tombstone."""
        self.purged_tombstones += len(posids)
        if any(entry[0] in posids for entry in self._delete_log):
            self._delete_log = [entry for entry in self._delete_log
                                if entry[0] not in posids]

    def forget_peer(self, site: SiteId) -> None:
        """A peer departed permanently (graceful leave): stop letting
        its last ack pin the stable frontier. The caller owns the
        protocol burden that the departure is known cluster-wide."""
        if self._stability is not None:
            self._stability.forget_member(site)
            self._purge_memo = None
        self._peer_failures.pop(site, None)
        self._peer_retry_at.pop(site, None)
        if self._peer_hint == site:
            self._peer_hint = None

    # -- the edit history ------------------------------------------------------------

    def _log_op(self, op: Operation, origin: SiteId, sequence: int) -> None:
        """Record one applied op: its history entry and, for a delete
        that leaves a tombstone (SDIS), its delete-log record."""
        if isinstance(op, FlattenOp):
            # A flatten rewrites the subtree's identifier structure:
            # region state before and after do not merge, so the event
            # is opaque to frontier-diffing.
            self._remember(op.path.bits(), origin, sequence)
            self._opaque_frontier = self._opaque_frontier.merge(
                VectorClock({origin: sequence})
            )
        elif isinstance(op, DeleteOp):
            self._remember(op.posid.bits(), origin, sequence, op.posid)
            if self.doc.keeps_tombstones:
                self._delete_log.append((op.posid, origin, sequence))
        else:
            self._remember(op.posid.bits(), origin, sequence)

    def _note_opaque(self, clock: VectorClock,
                     known: Optional[VectorClock] = None) -> None:
        """Events up to ``clock`` were learned wholesale (an adopted
        snapshot, a merged delta, recovery) and left no per-op entry: a
        whole-document entry per origin past ``known`` makes this site
        vote No on any flatten whose snapshot predates them, and the
        opaque frontier keeps it from diffing across them."""
        for site, sequence in clock.items():
            if known is None or sequence > known.get(site):
                self._remember((), site, sequence)
        self._opaque_frontier = self._opaque_frontier.merge(clock)

    def _remember(self, bits: Tuple[int, ...], origin: SiteId,
                  sequence: int, posid: Optional[PosID] = None) -> None:
        """Append one history entry; past :data:`HISTORY_KEEP` the
        oldest drops and the floor rises to cover its event."""
        history = self._history
        history.append((bits, origin, sequence, posid))
        if len(history) > HISTORY_KEEP:
            _, old_origin, old_sequence, _ = history.popleft()
            if old_sequence > self._history_floor.get(old_origin):
                self._history_floor = self._history_floor.merge(
                    VectorClock({old_origin: old_sequence})
                )

    # -- queries ---------------------------------------------------------------------

    def text(self, separator: str = "") -> str:
        return self.doc.text(separator)

    def atoms(self) -> List[object]:
        return self.doc.atoms()

    def __len__(self) -> int:
        return len(self.doc)

    @property
    def locked_regions(self) -> int:
        return len(self._locks)

    def __repr__(self) -> str:
        return f"<ReplicaSite {self.site} atoms={len(self.doc)}>"
