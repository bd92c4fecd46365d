"""The socket-backed network adapter a :class:`ReplicaSite` plugs into.

:class:`repro.replication.site.ReplicaSite` talks to an abstract
network — ``register`` / ``send`` / ``broadcast`` / ``now`` /
``sites`` / ``reachable`` / ``disconnect`` — and never cares whether
deliveries come from the discrete-event simulator or a kernel socket.
:class:`SocketTransport` implements that contract over real TCP
connections managed by the daemon: the site's sends land in bounded
per-peer :class:`SendQueue`\\ s, the per-connection writer tasks drain
them, and inbound frames re-enter through the handler the site
registered. The replication layer is byte-identical in both worlds —
that is the whole point.

**Backpressure** lives here. Each peer's queue holds two bands:

- *high* — causal envelopes and commitment messages
  (prepare/vote/abort): loss is repaired only by anti-entropy, so they
  are shed last;
- *low* — acks and anti-entropy traffic (requests, responses, deltas,
  declines): all of it is re-requestable, so it is shed first.

The writer always drains the high band before the low band (a slow
consumer sees its acks and snapshots *deprioritized*), the low band is
shed once total depth crosses ``high_watermark``, and the high band
itself is shed at the ``max_depth`` hard cap — a stalled peer costs a
bounded number of buffered frames, never unbounded memory. Whatever
was shed, the anti-entropy exchange recovers when the peer returns;
the counters make the shedding observable.

Queues are created *eagerly* for every configured peer, before any
connection exists: a recovering site re-broadcasts its WAL tail at
construction time, and those frames must park in a bounded queue until
the peer dials in, not vanish.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, Mapping, Optional, Set, Tuple

from repro.core.disambiguator import SiteId
from repro.replication.wire import peek_wire_kind

#: Wire kinds shed last: causal and commitment traffic, repairable
#: only by anti-entropy.
HIGH_BAND_KINDS = frozenset({"envelope", "prepare", "vote", "abort"})


class SendQueue:
    """A bounded, two-band outbound queue for one peer."""

    def __init__(self, high_watermark: int = 256,
                 max_depth: int = 1024) -> None:
        if not 0 < high_watermark <= max_depth:
            raise ValueError("need 0 < high_watermark <= max_depth")
        self.high_watermark = high_watermark
        self.max_depth = max_depth
        self._high: Deque[bytes] = deque()
        self._low: Deque[bytes] = deque()
        self._wakeup = asyncio.Event()
        #: Counters: what was refused, the worst depth.
        self.shed_low = 0
        self.shed_high = 0
        self.max_depth_seen = 0

    @property
    def depth(self) -> int:
        return len(self._high) + len(self._low)

    @property
    def shed(self) -> int:
        """Total frames refused by the watermark or the hard cap."""
        return self.shed_low + self.shed_high

    def push(self, payload: bytes) -> bool:
        """Enqueue one wire frame; False when shed by the bounds."""
        depth = self.depth
        if peek_wire_kind(payload) in HIGH_BAND_KINDS:
            if depth >= self.max_depth:
                self.shed_high += 1
                return False
            self._high.append(payload)
        else:
            if depth >= self.high_watermark:
                self.shed_low += 1
                return False
            self._low.append(payload)
        self.max_depth_seen = max(self.max_depth_seen, depth + 1)
        self._wakeup.set()
        return True

    def pop(self) -> Optional[bytes]:
        """The next frame to write — high band strictly first."""
        if self._high:
            return self._high.popleft()
        if self._low:
            return self._low.popleft()
        self._wakeup.clear()
        return None

    async def wait(self) -> None:
        """Block until a push arrives (writer-task parking spot)."""
        await self._wakeup.wait()

    def clear(self) -> int:
        """Drop everything (connection abandoned); returns the count."""
        dropped = self.depth
        self._high.clear()
        self._low.clear()
        self._wakeup.clear()
        return dropped


class SocketTransport:
    """The site-facing network interface over daemon-managed sockets.

    The daemon marks peers connected/disconnected as their connections
    come and go; ``sites`` and ``reachable`` expose the live roster so
    the site's anti-entropy peer rotation and ack membership follow
    real connectivity. ``now`` is the event loop's monotonic clock in
    milliseconds — the unit every replication policy already uses.
    """

    def __init__(
        self,
        site: SiteId,
        peers: Mapping[SiteId, Tuple[str, int]],
        high_watermark: int = 256,
        max_depth: int = 1024,
    ) -> None:
        self.site = site
        self.peers: Dict[SiteId, Tuple[str, int]] = dict(peers)
        self.queues: Dict[SiteId, SendQueue] = {
            peer: SendQueue(high_watermark, max_depth)
            for peer in self.peers
        }
        self._connected: Set[SiteId] = set()
        self._handler = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.closed = False
        #: Frames addressed to a site no queue exists for (a frame
        #: claimed an unconfigured id): dropped, counted, never raised —
        #: an exception here would poison the apply loop.
        self.unroutable = 0

    # -- the contract ReplicaSite consumes ---------------------------------------

    def register(self, site: SiteId, handler) -> None:
        if site != self.site:
            raise ValueError(
                f"transport for site {self.site} cannot host site {site}"
            )
        self._handler = handler

    @property
    def now(self) -> float:
        """Monotonic milliseconds (the policies' time unit)."""
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        return self._loop.time() * 1000.0

    @property
    def sites(self) -> Tuple[SiteId, ...]:
        """The live roster: this site plus currently-connected peers."""
        return tuple(sorted({self.site} | self._connected))

    def reachable(self, src: SiteId, dst: SiteId) -> bool:
        return dst == self.site or dst in self._connected

    def send(self, src: SiteId, dst: SiteId, payload: bytes) -> None:
        queue = self.queues.get(dst)
        if queue is None:
            self.unroutable += 1
            return
        queue.push(bytes(payload))

    def broadcast(self, src: SiteId, payload: bytes) -> None:
        payload = bytes(payload)
        for queue in self.queues.values():
            queue.push(payload)

    def disconnect(self, site: SiteId) -> None:
        """The site detached itself (``ReplicaSite.crash``)."""
        if site == self.site:
            self.closed = True

    # -- daemon-side wiring --------------------------------------------------------

    @property
    def handler(self):
        """The site's delivery handler (``handler(src, payload)``)."""
        return self._handler

    def mark_connected(self, peer: SiteId) -> None:
        self._connected.add(peer)

    def mark_disconnected(self, peer: SiteId) -> None:
        self._connected.discard(peer)

    @property
    def connected(self) -> Tuple[SiteId, ...]:
        return tuple(sorted(self._connected))

    def shed_totals(self) -> Dict[str, int]:
        """Aggregate shedding across every peer queue (for status)."""
        return {
            "shed_low": sum(q.shed_low for q in self.queues.values()),
            "shed_high": sum(q.shed_high for q in self.queues.values()),
            "max_depth_seen": max(
                (q.max_depth_seen for q in self.queues.values()), default=0
            ),
        }
