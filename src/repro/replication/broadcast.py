"""Causal broadcast: happened-before delivery over the simulated network.

Treedoc only requires that operations replay in an order compatible with
happened-before (section 1). The classic vector-clock algorithm provides
it: each broadcast carries the sender's clock; a receiver delivers a
message once it has delivered everything the sender had, buffering it
otherwise. Duplicates (from the lossy transport's retransmissions) are
filtered by the per-origin sequence number embedded in the clock.

The channel speaks bytes: :meth:`CausalBroadcast.broadcast` encodes one
:class:`repro.core.ops.OpBatch` (a whole typed string, deleted range,
single-atom edit or committed flatten) as a compact batch frame inside
an :class:`repro.replication.wire.EnvelopeFrame` and puts only the
encoded frame on the network; delivery decodes the payload after the
causal test passes. The per-envelope vector-clock stamp, the encode and
the delivery test are all paid once per edit, not once per atom. A
received payload may still be a bare v1 operation (journals and peers
from before batch-only writers); delivery hands it on as decoded.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.core.disambiguator import SiteId
from repro.core.encoding import encode_batch
from repro.core.ops import OpBatch, Operation
from repro.errors import CausalityError
from repro.replication.clock import VectorClock
from repro.replication.network import SimulatedNetwork
from repro.replication.wire import EnvelopeFrame, decode_wire

#: Application callback on causal delivery: callback(origin, event),
#: where the event is the decoded OpBatch (or a bare operation an older
#: writer sent).
DeliverFn = Callable[[SiteId, Union[Operation, OpBatch]], None]


class CausalBroadcast:
    """Per-site causal broadcast endpoint (bytes in, bytes out)."""

    def __init__(self, site: SiteId, network: SimulatedNetwork,
                 deliver: DeliverFn, register: bool = True) -> None:
        self.site = site
        self.network = network
        self._deliver = deliver
        self.clock = VectorClock()
        #: Durability hook: called with an envelope's wire bytes right
        #: before the envelope takes effect — before a local event is
        #: shipped, and before a remote one is delivered (log-before-
        #: apply). Owners with a :class:`repro.storage.DurableStore`
        #: install it; None means no journaling.
        self.journal: Optional[Callable[[bytes], None]] = None
        self._buffer: List[EnvelopeFrame] = []
        #: Clock of the envelope last handed to ``deliver``: inside the
        #: callback, the causal past of the event being applied (the
        #: event itself included).
        self.delivering: Optional[VectorClock] = None
        #: Simulated time at which the buffer last became non-empty
        #: (None while empty): the age of the oldest unmet causal gap,
        #: which the anti-entropy policy reads.
        self.blocked_since: Optional[float] = None
        if register:
            network.register(site, self.on_message)

    # -- sending ------------------------------------------------------------------

    def broadcast(self, batch: OpBatch) -> EnvelopeFrame:
        """Stamp, encode and broadcast a locally generated batch.

        The local event is delivered to the local application by the
        caller (it already applied the operation); this only ships it.
        Returns the envelope frame that went on the wire.
        """
        payload, bits = encode_batch(batch)
        self.clock = self.clock.tick(self.site)
        frame = EnvelopeFrame(self.site, self.clock.copy(), payload, bits)
        data = frame.to_wire()
        if self.journal is not None:
            # Log before ship: once the caller observes the edit as
            # sent, a crash must be able to replay (and re-ship) it.
            self.journal(data)
        self.network.broadcast(self.site, data)
        return frame

    # -- state-transfer catch-up ---------------------------------------------------

    def catch_up(self, clock: VectorClock) -> None:
        """Adopt a state snapshot's causal frontier.

        Every event the snapshot covers is already reflected in the
        loaded document state; the duplicate filter treats any sequence
        at or below the clock as delivered (see :meth:`has_delivered`),
        so adopting a frontier is O(clock entries) no matter how much
        history it covers. Buffered envelopes are then re-drained:
        messages that were stuck waiting on the gap this snapshot just
        filled become deliverable; ones the snapshot already contains
        drop as duplicates.
        """
        self.clock = self.clock.merge(clock)
        self._drain()

    # -- receiving -----------------------------------------------------------------

    def on_message(self, src: SiteId, data: bytes) -> None:
        """Network delivery entry point for a standalone endpoint: the
        raw wire bytes of one envelope frame. Raises
        :class:`repro.errors.DecodeError` on damaged bytes (the network
        retransmits) and :class:`CausalityError` on a frame that is not
        an envelope."""
        frame = decode_wire(data)
        if not isinstance(frame, EnvelopeFrame):
            raise CausalityError(f"unexpected wire frame {frame!r}")
        self.on_frame(frame)

    def on_frame(self, frame: EnvelopeFrame) -> None:
        """Accept one decoded envelope (owners that multiplex several
        frame kinds over one site handler call this directly)."""
        if self.has_delivered(frame.origin, frame.sequence):
            return  # duplicate from a retransmission (or a state sync)
        self._buffer.append(frame)
        if self.blocked_since is None:
            self.blocked_since = self.network.now
        self._drain()

    def _deliverable(self, frame: EnvelopeFrame) -> bool:
        """Standard causal-delivery test: next-in-sequence from its
        origin, and all its other dependencies already delivered."""
        if frame.sequence != self.clock.get(frame.origin) + 1:
            return False
        for site, count in frame.clock.items():
            if site == frame.origin:
                continue
            if self.clock.get(site) < count:
                return False
        return True

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for frame in list(self._buffer):
                if self.has_delivered(frame.origin, frame.sequence):
                    self._buffer.remove(frame)
                    progressed = True
                    continue
                if self._deliverable(frame):
                    # Decode after the causal test (buffered frames stay
                    # bytes until applied) but BEFORE merging the clock:
                    # a payload that fails to decode must not be
                    # recorded as delivered, or no retransmission could
                    # ever recover it. The frame IS dequeued first, so
                    # a permanently undecodable one (sender defect)
                    # cannot wedge the buffer — the raised DecodeError
                    # reaches the transport, which retries the bytes;
                    # if they never decode, the gap persists and the
                    # anti-entropy policy recovers by state transfer.
                    self._buffer.remove(frame)
                    payload = frame.decode_payload()
                    if self.journal is not None:
                        # Log before apply: a frame journals only after
                        # it decodes (same reason the clock merges after
                        # the decode) and before it mutates anything, so
                        # an ack never precedes durability. A received
                        # frame journals the bytes it arrived as.
                        self.journal(frame.to_wire())
                    self.clock = self.clock.merge(frame.clock)
                    self.delivering = frame.clock
                    self._deliver(frame.origin, payload)
                    progressed = True
        if not self._buffer:
            self.blocked_since = None

    # -- introspection --------------------------------------------------------------

    @property
    def buffered(self) -> int:
        """Messages waiting for their causal dependencies."""
        return len(self._buffer)

    def buffered_origins(self) -> List[SiteId]:
        """Origins of the buffered envelopes, oldest arrival first
        (candidate peers for an anti-entropy request: each is provably
        ahead of this site on some component)."""
        return [frame.origin for frame in self._buffer]

    def has_delivered(self, origin: SiteId, sequence: int) -> bool:
        """Whether the ``sequence``-th event of ``origin`` was delivered.

        Causal delivery is in-sequence per origin, and a delivery only
        ever advances the origin's own clock component by one (the
        other components were already satisfied), so the clock *is* the
        delivered set: no per-event bookkeeping, and adopting a whole
        state-snapshot frontier (:meth:`catch_up`) costs O(1) per site
        regardless of how much history it covers.
        """
        return sequence <= self.clock.get(origin)
