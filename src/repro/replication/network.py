"""Deterministic discrete-event network simulator.

Models the asynchronous message-passing environment the paper assumes:
messages between sites experience variable latency (hence reordering),
can be lost (the transport retransmits, so delivery is eventual — the
fair-lossy link + retry abstraction), can be duplicated, can be
corrupted in transit (bit flips; the receiver detects the damage, the
transport retransmits), and partitions can isolate groups of sites for
a while.

Payloads are **bytes** — the wire carries frames from
:mod:`repro.replication.wire`, never live objects — so every cost the
simulation reports (per-link byte counters, totals) is a measured
property of real encoded traffic, and the corruption fault operates on
actual bits. A handler that cannot decode what it received raises
:class:`repro.errors.DecodeError`; the transport treats that exactly
like a lost transmission and retries.

Everything is driven by one seeded RNG, so a whole multi-site scenario
replays identically from its seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Set, Tuple

from repro.core.disambiguator import SiteId
from repro.errors import DecodeError, ReplicationError
from repro.util.rng import derive_rng

#: A handler invoked on delivery: handler(src, payload bytes).
Handler = Callable[[SiteId, bytes], None]


@dataclass(frozen=True)
class NetworkConfig:
    """Tunables of the simulated network."""

    #: Uniform latency bounds (simulated milliseconds).
    min_latency: float = 5.0
    max_latency: float = 50.0
    #: Probability a transmission attempt is lost (and retransmitted).
    drop_rate: float = 0.0
    #: Probability a delivered message is delivered once more.
    duplicate_rate: float = 0.0
    #: Probability a transmission arrives with a flipped bit. The
    #: receiver's decoder rejects the damaged frame (CRC mismatch →
    #: :class:`repro.errors.DecodeError`) and the transport retries —
    #: corruption is loss that costs a round trip to notice.
    corruption_rate: float = 0.0
    #: Scripted corruption: 1-based ordinals of transmissions (attempts
    #: that reach a receiver, counted network-wide, retransmissions
    #: included) that arrive with a flipped bit on top of whatever
    #: ``corruption_rate`` draws — a deterministic fault for tests that
    #: must see corruption happen. A final attempt is never corrupted.
    corrupt_transmissions: FrozenSet[int] = frozenset()
    #: Delay before a lost (or corrupted) transmission is retried.
    retransmit_delay: float = 100.0
    #: Attempts before the transport stops pretending to lose the
    #: message (keeps simulations finite; models eventual delivery).
    max_transmit_attempts: int = 16


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    src: SiteId = field(compare=False)
    dst: SiteId = field(compare=False)
    payload: bytes = field(compare=False)
    attempt: int = field(compare=False, default=1)


class SimulatedNetwork:
    """An event-queue network connecting registered sites.

    The wire carries bytes only: :meth:`send` rejects anything that is
    not a ``bytes`` payload, which is what keeps the byte counters
    honest — every number below measures encoded frames that actually
    crossed a link.
    """

    def __init__(self, config: NetworkConfig | None = None,
                 seed: int = 0) -> None:
        self.config = config or NetworkConfig()
        self._rng = derive_rng(seed, "network")
        self._handlers: Dict[SiteId, Handler] = {}
        #: Ids that were registered and then disconnected (crashed): a
        #: send to one is a loss, not an unknown destination.
        self._departed: Set[SiteId] = set()
        self._queue: List[_Event] = []
        self._held: List[_Event] = []  # messages blocked by a partition
        self._partitions: List[Set[SiteId]] = []
        self._sequence = 0
        self.now = 0.0
        #: Delivery counters, for assertions and metrics.
        self.sent_messages = 0
        self.delivered_messages = 0
        self.dropped_transmissions = 0
        self.duplicated_messages = 0
        self.corrupted_transmissions = 0
        #: Transmissions that reached a receiver (the ordinals
        #: ``NetworkConfig.corrupt_transmissions`` names).
        self.transmissions = 0
        #: Deliveries the receiver rejected as undecodable (corruption
        #: detected); each one triggered a retransmission.
        self.decode_rejections = 0
        #: Byte counters: payload bytes accepted by :meth:`send` /
        #: payload bytes handed to handlers (duplicates included).
        self.bytes_sent = 0
        self.bytes_delivered = 0
        #: Delivered payload bytes per directed link ``(src, dst)`` —
        #: what the wire-cost experiments and benchmarks read.
        self.link_bytes: Dict[Tuple[SiteId, SiteId], int] = {}

    # -- wiring ------------------------------------------------------------------

    def register(self, site: SiteId, handler: Handler) -> None:
        """Attach a site's delivery handler."""
        if site in self._handlers:
            raise ReplicationError(f"site {site} already registered")
        self._handlers[site] = handler

    def disconnect(self, site: SiteId) -> None:
        """Detach a site (a crash, in the simulations). Messages
        already in flight to it are treated as losses and retried —
        the retransmissions bridge a short downtime; a longer one is
        what the anti-entropy exchange recovers on rejoin. The site id
        can be :meth:`register`-ed again (a restarted process). A
        message sent to it while it is down is lost the same way."""
        if self._handlers.pop(site, None) is not None:
            self._departed.add(site)

    @property
    def sites(self) -> Tuple[SiteId, ...]:
        return tuple(sorted(self._handlers))

    # -- partitions -----------------------------------------------------------------

    def partition(self, *groups: Set[SiteId]) -> None:
        """Split the network: messages may only flow within a group.

        Sites not mentioned in any group form an implicit final group.
        """
        named = [set(g) for g in groups]
        rest = set(self._handlers) - set().union(*named) if named else set()
        if rest:
            named.append(rest)
        self._partitions = named

    def heal(self) -> None:
        """Remove the partition and release held messages."""
        self._partitions = []
        for event in self._held:
            # Held messages resume with a fresh latency from *now*.
            self._schedule(event.src, event.dst, event.payload,
                           self.now + self._latency(), event.attempt)
        self._held = []

    def _blocked(self, a: SiteId, b: SiteId) -> bool:
        for group in self._partitions:
            if (a in group) != (b in group):
                return True
        return False

    def reachable(self, src: SiteId, dst: SiteId) -> bool:
        """Whether a message from ``src`` could currently reach ``dst``:
        the destination is registered (alive) and no partition separates
        the two. Anti-entropy peer selection consults this — a request
        addressed across a partition would only be held until heal."""
        return dst in self._handlers and not self._blocked(src, dst)

    # -- sending --------------------------------------------------------------------

    def send(self, src: SiteId, dst: SiteId, payload: bytes) -> None:
        """Enqueue a message; delivery happens during :meth:`run`.

        Only ``bytes`` payloads are accepted: the network is a wire,
        not an object bus. Encode with
        :func:`repro.replication.wire.encode_wire` first. A send to a
        disconnected site is queued and lost like a message in flight
        when it crashed; a site id never registered raises.
        """
        if dst not in self._handlers and dst not in self._departed:
            raise ReplicationError(f"unknown destination site {dst}")
        if not isinstance(payload, (bytes, bytearray)):
            raise ReplicationError(
                "network payloads must be bytes (a wire frame); got "
                f"{type(payload).__name__} — encode with "
                "repro.replication.wire.encode_wire"
            )
        payload = bytes(payload)
        self.sent_messages += 1
        self.bytes_sent += len(payload)
        self._schedule(src, dst, payload, self.now + self._latency(), 1)

    def broadcast(self, src: SiteId, payload: bytes) -> None:
        """Send to every other registered site."""
        for dst in self._handlers:
            if dst != src:
                self.send(src, dst, payload)

    def _latency(self) -> float:
        return self._rng.uniform(self.config.min_latency,
                                 self.config.max_latency)

    def _schedule(self, src: SiteId, dst: SiteId, payload: bytes,
                  time: float, attempt: int) -> None:
        self._sequence += 1
        heapq.heappush(
            self._queue, _Event(time, self._sequence, src, dst, payload, attempt)
        )

    def _retransmit(self, event: _Event) -> None:
        self._schedule(
            event.src,
            event.dst,
            event.payload,
            self.now + self.config.retransmit_delay + self._latency(),
            event.attempt + 1,
        )

    def _flip_bit(self, payload: bytes) -> bytes:
        """A copy of ``payload`` with one RNG-chosen bit inverted."""
        damaged = bytearray(payload)
        position = self._rng.randrange(len(damaged) * 8)
        damaged[position // 8] ^= 0x80 >> (position % 8)
        return bytes(damaged)

    def _account_delivery(self, event: _Event, size: int) -> None:
        self.delivered_messages += 1
        self.bytes_delivered += size
        link = (event.src, event.dst)
        self.link_bytes[link] = self.link_bytes.get(link, 0) + size

    # -- running -----------------------------------------------------------------------

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            self.now = max(self.now, event.time)
            if self._blocked(event.src, event.dst):
                self._held.append(event)
                continue
            final_attempt = event.attempt >= self.config.max_transmit_attempts
            if event.dst not in self._handlers:
                # Destination offline (crashed between send and
                # delivery): a loss. Retries bridge a short downtime;
                # after the attempt budget the message is abandoned and
                # rejoin recovery falls to anti-entropy.
                self.dropped_transmissions += 1
                if not final_attempt:
                    self._retransmit(event)
                return True
            if (not final_attempt
                    and self._rng.random() < self.config.drop_rate):
                # Lost transmission: the transport retries later.
                self.dropped_transmissions += 1
                self._retransmit(event)
                return True
            handler = self._handlers[event.dst]
            self.transmissions += 1
            if (not final_attempt and len(event.payload)
                    and (self._rng.random() < self.config.corruption_rate
                         or self.transmissions
                         in self.config.corrupt_transmissions)):
                # Bit flip in transit. The damaged frame still crosses
                # the wire (and is billed to the link); the receiver's
                # decoder rejects it and the transport retries. The
                # final attempt is never corrupted, so delivery stays
                # eventual, mirroring the drop fault.
                self.corrupted_transmissions += 1
                damaged = self._flip_bit(event.payload)
                try:
                    handler(event.src, damaged)
                except DecodeError:
                    self.decode_rejections += 1
                    self._account_delivery(event, len(damaged))
                    self._retransmit(event)
                    return True
                # The flip survived decoding (possible only for frames
                # without an integrity check): it was delivered, fall
                # through to normal accounting.
                self._account_delivery(event, len(damaged))
                return True
            try:
                handler(event.src, event.payload)
            except DecodeError:
                # The receiver rejected intact bytes (sender-side
                # framing defect): still loss to the transport, which
                # retries until attempts run out, then abandons the
                # poison message rather than aborting the simulation.
                self.decode_rejections += 1
                self._account_delivery(event, len(event.payload))
                if not final_attempt:
                    self._retransmit(event)
                return True
            self._account_delivery(event, len(event.payload))
            if self._rng.random() < self.config.duplicate_rate:
                self.duplicated_messages += 1
                self._schedule(
                    event.src, event.dst, event.payload,
                    self.now + self._latency(), event.attempt,
                )
            return True
        return False

    def run(self, max_events: int = 1_000_000) -> int:
        """Deliver until quiescent (or the event budget runs out);
        returns the number of events processed. Messages held behind a
        partition do not count as pending."""
        processed = 0
        while processed < max_events and self.step():
            processed += 1
        if processed >= max_events and self._queue:
            raise ReplicationError("network did not quiesce within budget")
        return processed

    def advance(self, delta: float) -> float:
        """Advance simulated time by ``delta`` ms with no traffic.

        A quiesced simulation (empty queue) has no event to pull time
        forward, so age- and backoff-based policies would never expire;
        the anti-entropy driver advances the clock explicitly while
        causal gaps persist. Returns the new ``now``.
        """
        if delta > 0:
            self.now += delta
        return self.now

    @property
    def pending(self) -> int:
        """Events waiting in the queue (excluding partition-held ones)."""
        return len(self._queue)

    @property
    def held(self) -> int:
        """Messages currently blocked by the partition."""
        return len(self._held)

    def link_bytes_to(self, dst: SiteId) -> int:
        """Total delivered payload bytes addressed to ``dst``."""
        return sum(size for (_, to), size in self.link_bytes.items()
                   if to == dst)

    def link_bytes_from(self, src: SiteId) -> int:
        """Total delivered payload bytes that ``src`` put on the wire."""
        return sum(size for (frm, _), size in self.link_bytes.items()
                   if frm == src)
