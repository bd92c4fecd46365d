"""The asyncio site daemon: one ReplicaSite served over real sockets.

:class:`SiteDaemon` hosts exactly one :class:`~repro.replication.site.
ReplicaSite` behind TCP, speaking the existing wire grammar unchanged
— the bytes a daemon puts on a socket are byte-for-byte the frames the
simulated network carries, wrapped in the stream framing of
:mod:`repro.server.framing`. The pieces:

- a listen socket accepting peer connections (and an admin socket,
  :mod:`repro.server.admin`);
- per-peer :class:`~repro.server.connection.PeerConnection` task pairs
  over the bounded send queues of :class:`~repro.server.transport.
  SocketTransport`;
- a :class:`~repro.server.supervisor.ConnectionSupervisor` dialing
  lower-id peers with jittered exponential backoff and watching for
  silent connections;
- a single **apply task** draining one bounded inbound queue — every
  frame from every peer funnels through it, so the replica applies
  strictly sequentially (the same single-threaded discipline the
  simulator guarantees) and a decode error is a counted non-event;
- an **admission gate** in front of that queue: when inbound depth or
  the in-flight sync cap is exceeded, re-requestable work is refused
  *typed* — remote ``SyncRequest``\\ s get an immediate
  ``SyncDecline(busy)``, local admin writes get
  :class:`repro.errors.OverloadedError` — and everything else is shed
  for anti-entropy to repair;
- a graceful shutdown path (SIGTERM/SIGINT) that stops admission,
  drains the send queues briefly, checkpoints the durable store, and
  closes the WAL — while SIGKILL at any instant is exactly the crash
  the store's recovery protocol (checkpoint + tail replay + rejoin)
  is tested against.

The replication layer runs unmodified: the daemon is deliberately
*only* plumbing — sockets, queues, timers, signals — so every
convergence property proven in the simulations carries over verbatim.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.disambiguator import SiteId
from repro.errors import DecodeError, OverloadedError, ReproError
from repro.replication.site import ReplicaSite
from repro.replication.sync import AntiEntropyPolicy
from repro.replication.clock import VectorClock
from repro.replication.wire import (
    DECLINE_BUSY,
    SyncDecline,
    encode_wire,
    peek_wire_kind,
)
from repro.server.framing import FrameReader
from repro.server.transport import SocketTransport
from repro.server.supervisor import ConnectionSupervisor

#: How long a graceful shutdown waits for admitted frames to apply and
#: the send queues to flush (loop seconds); a dead peer cannot wedge
#: exit past it.
DRAIN_TIMEOUT = 2.0


@dataclass
class DaemonConfig:
    """Everything a site daemon needs to serve."""

    site: SiteId
    #: Listen address; port 0 binds an ephemeral port (read it back
    #: from :attr:`SiteDaemon.port` after :meth:`SiteDaemon.start`).
    host: str = "127.0.0.1"
    port: int = 0
    admin_port: int = 0
    #: Static peer roster: site id -> (host, port) of its listener.
    peers: Mapping[SiteId, Tuple[str, int]] = field(default_factory=dict)
    mode: str = "udis"
    #: Durable store directory; None runs volatile.
    store_path: Optional[str] = None
    checkpoint_every: Optional[int] = 64
    #: Outbound bounds (per peer queue; see transport.SendQueue).
    high_watermark: int = 256
    max_depth: int = 1024
    #: Inbound bounds (global apply queue + sync admission).
    inbound_depth: int = 512
    max_inflight_syncs: int = 8
    #: Timers, in loop seconds.
    heartbeat_interval: float = 0.5
    idle_timeout: float = 5.0
    tick_interval: float = 0.05
    #: How long a peer's acked frontier may stay ahead of ours before
    #: the lag detector fires a targeted sync request (seconds). The
    #: replication layer only notices gaps through *buffered* out-of-
    #: order envelopes; over real sockets an envelope written into a
    #: dying connection is simply gone, and this detector is what
    #: keeps a restarted or cut-off site from staying behind forever.
    lag_sync_after: float = 1.0
    #: Seeds the reconnect jitter (see :mod:`repro.server.supervisor`).
    seed: int = 0


class SiteDaemon:
    """One replica site served over TCP."""

    def __init__(self, config: DaemonConfig,
                 policy: Optional[AntiEntropyPolicy] = None) -> None:
        self.config = config
        self.transport = SocketTransport(
            config.site, config.peers,
            high_watermark=config.high_watermark,
            max_depth=config.max_depth,
        )
        self.store = None
        if config.store_path is not None:
            from repro.storage.store import DurableStore

            self.store = DurableStore(
                config.store_path,
                checkpoint_every=config.checkpoint_every,
            )
        self.site = ReplicaSite(
            config.site, self.transport, mode=config.mode, policy=policy,
            store=self.store,
        )
        self.supervisor = ConnectionSupervisor(self)
        self.connections: Dict[SiteId, "PeerConnection"] = {}
        self._inbound: asyncio.Queue = asyncio.Queue()
        self._inflight_syncs = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._admin = None
        self._tasks: List[asyncio.Task] = []
        self._closed = asyncio.Event()
        self.closing = False
        self.port: Optional[int] = None
        self.admin_port: Optional[int] = None
        #: Observability counters.
        self.frames_applied = 0
        self.decode_errors = 0
        self.apply_errors = 0
        #: Peer-stream frame readers still open, and the framing
        #: damage the closed ones met (``stream_resyncs``).
        self._open_streams: Set[FrameReader] = set()
        self._closed_resyncs = 0
        self._closed_bytes_discarded = 0
        self.shed_inbound = 0
        self.declined_syncs = 0
        self.protocol_errors = 0
        self.lag_syncs = 0
        self.last_error: Optional[str] = None
        #: Frontier-lag detection: the last applied clock each peer
        #: acked (heartbeats and hellos are acks), and since when at
        #: least one of them has been strictly ahead of this site.
        self._peer_clocks: Dict[SiteId, "VectorClock"] = {}
        self._lag_since: Optional[float] = None
        self.site.on_ack = self._note_peer_clock
        #: Recent apply latencies (ms), ring-buffered for status/bench.
        self.apply_latencies: Deque[float] = deque(maxlen=4096)

    # -- lifecycle --------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the sockets and start serving (returns immediately)."""
        from repro.server.admin import AdminServer

        loop = asyncio.get_event_loop()
        self._server = await asyncio.start_server(
            self._on_inbound, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._admin = AdminServer(self)
        await self._admin.start(self.config.host, self.config.admin_port)
        self.admin_port = self._admin.port
        self.supervisor.start()
        self._tasks.append(loop.create_task(self._apply_loop()))
        self._tasks.append(loop.create_task(self._tick_loop()))

    async def serve(self) -> None:
        """Start, then block until shutdown completes."""
        await self.start()
        await self.wait_closed()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger the graceful drain-and-checkpoint.
        (SIGKILL cannot be caught — by design, that is the crash path
        the durable store recovers from.)"""
        import signal

        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_shutdown)

    def request_shutdown(self) -> None:
        if not self.closing:
            asyncio.get_event_loop().create_task(self.shutdown())

    async def shutdown(self) -> None:
        """Graceful exit: refuse new work, drain, checkpoint, close."""
        if self.closing:
            await self._closed.wait()
            return
        self.closing = True
        # Stop accepting connections and admin commands.
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._admin is not None:
            await self._admin.stop()
        # Apply whatever was already admitted, then flush the send
        # queues — both bounded waits; a dead peer cannot wedge exit.
        await self._drain()
        await self.supervisor.stop()
        for connection in list(self.connections.values()):
            await connection.close()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        if self.store is not None:
            self.site.checkpoint()
            self.store.close()
        self._closed.set()

    async def _drain(self) -> bool:
        loop = asyncio.get_event_loop()
        deadline = loop.time() + DRAIN_TIMEOUT
        while loop.time() < deadline:
            inbound_empty = self._inbound.empty()
            outbound_empty = all(
                queue.depth == 0
                or queue_peer not in self.connections
                for queue_peer, queue in self.transport.queues.items()
            )
            if inbound_empty and outbound_empty:
                return True
            await asyncio.sleep(0.01)
        return False

    # -- connection registry ----------------------------------------------------------

    async def _on_inbound(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        from repro.server.connection import PeerConnection

        if self.closing:
            writer.close()
            return
        await PeerConnection(self, reader, writer).run()

    def attach_connection(self, connection: "PeerConnection") -> bool:
        peer = connection.peer
        if peer == self.config.site or peer not in self.transport.queues:
            self.note_protocol_error(f"connection from unknown site {peer}")
            return False
        old = self.connections.get(peer)
        if old is not None and old is not connection:
            # Reconnect race: the newest socket wins, the stale one
            # (whose peer may have silently rebooted) is torn down.
            asyncio.get_event_loop().create_task(old.close())
        self.connections[peer] = connection
        self.transport.mark_connected(peer)
        return True

    def detach_connection(self, connection: "PeerConnection") -> None:
        peer = connection.peer
        if peer is None:
            return
        if self.connections.get(peer) is connection:
            del self.connections[peer]
            self.transport.mark_disconnected(peer)

    def open_stream(self) -> FrameReader:
        """A frame reader for a new peer stream, counted in
        ``stream_resyncs`` from now on."""
        reader = FrameReader()
        self._open_streams.add(reader)
        return reader

    def close_stream(self, reader: FrameReader) -> None:
        """Fold a finished stream's framing damage into the totals."""
        if reader in self._open_streams:
            self._open_streams.remove(reader)
            self._closed_resyncs += reader.resyncs
            self._closed_bytes_discarded += reader.bytes_discarded

    @property
    def stream_resyncs(self) -> int:
        """Framing resyncs over every peer stream this daemon read:
        each is counted once, by the stream's frame reader."""
        return self._closed_resyncs + sum(
            reader.resyncs for reader in self._open_streams)

    @property
    def stream_bytes_discarded(self) -> int:
        """Bytes those resyncs discarded."""
        return self._closed_bytes_discarded + sum(
            reader.bytes_discarded for reader in self._open_streams)

    def note_protocol_error(self, message: str) -> None:
        self.protocol_errors += 1
        self.last_error = message

    # -- admission and apply ----------------------------------------------------------

    def check_admission(self) -> None:
        """The local-writer side of the gate: admin edits refuse with
        a typed :class:`OverloadedError` while the apply queue is at
        capacity, instead of piling more work behind it."""
        if self.closing:
            raise OverloadedError(
                f"site {self.config.site} daemon is shutting down"
            )
        if self._inbound.qsize() >= self.config.inbound_depth:
            raise OverloadedError(
                f"site {self.config.site} apply queue at capacity "
                f"({self.config.inbound_depth}); retry after backoff"
            )

    async def admit(self, peer: SiteId, payload: bytes) -> None:
        """The admission gate every inbound frame passes through."""
        kind = peek_wire_kind(payload)
        if self.closing:
            self.shed_inbound += 1
            return
        if self._inbound.qsize() >= self.config.inbound_depth:
            self.shed_inbound += 1
            if kind == "sync_request":
                self._decline_busy(peer)
            return
        if (kind == "sync_request"
                and self._inflight_syncs >= self.config.max_inflight_syncs):
            self.declined_syncs += 1
            self._decline_busy(peer)
            return
        if kind == "sync_request":
            self._inflight_syncs += 1
        self._inbound.put_nowait((peer, payload, kind))

    def _decline_busy(self, peer: SiteId) -> None:
        """Refuse re-requestable sync work typed, not silently: the
        requester scores the decline, backs off, and rotates peers."""
        self.transport.send(
            self.config.site, peer,
            encode_wire(SyncDecline(self.config.site, DECLINE_BUSY, None)),
        )

    async def _apply_loop(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            peer, payload, kind = await self._inbound.get()
            started = loop.time()
            try:
                self.transport.handler(peer, payload)
                self.frames_applied += 1
            except DecodeError as exc:
                # Damaged in transit (CRC) or malformed: a counted
                # non-event. Unlike the simulator there is no
                # retransmit — TCP already guarantees delivery of what
                # was sent, so damage means a sender-side defect and
                # anti-entropy is the repair channel.
                self.decode_errors += 1
                self.last_error = f"decode: {exc.context() or exc}"
            except ReproError as exc:
                self.apply_errors += 1
                self.last_error = f"apply: {exc}"
            except Exception as exc:  # noqa: BLE001 - daemon must survive
                self.apply_errors += 1
                self.last_error = f"unexpected: {exc!r}"
            finally:
                if kind == "sync_request":
                    self._inflight_syncs -= 1
            self.apply_latencies.append((loop.time() - started) * 1000.0)

    def _note_peer_clock(self, peer: SiteId, applied: VectorClock) -> None:
        """Heartbeats and hellos carry the sender's applied clock: the
        site hands each decoded ack here, so the tick loop can notice
        this site has silently fallen behind."""
        old = self._peer_clocks.get(peer)
        self._peer_clocks[peer] = (
            applied if old is None else old.merge(applied)
        )

    async def _tick_loop(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            await asyncio.sleep(self.config.tick_interval)
            try:
                self.site.maybe_request_sync()
                self._check_frontier_lag(loop.time())
            except ReproError as exc:
                self.apply_errors += 1
                self.last_error = f"tick: {exc}"

    def _check_frontier_lag(self, now: float) -> None:
        """Request a sync from a peer whose acked frontier has stayed
        strictly ahead of ours for :attr:`DaemonConfig.lag_sync_after`.

        The replication layer's anti-entropy triggers on *buffered*
        out-of-order envelopes — the only gap signal a lossless
        simulated network can produce. Over real sockets an envelope
        written into a connection that is dying (peer SIGKILLed, link
        severed) is lost with no buffered trace, and a site that
        missed everything during an outage would otherwise idle at its
        stale frontier forever. Heartbeat acks double as the gossip
        that exposes the lag; this detector turns it into a targeted
        ``SyncRequest`` (rotating through the ahead peers, re-armed
        after each attempt so repair keeps retrying until caught up).
        """
        clock = self.site.broadcast.clock
        ahead = [
            peer for peer, remote in self._peer_clocks.items()
            if peer in self.transport.connected
            and any(count > clock.get(site) for site, count in
                    remote.items())
        ]
        if not ahead:
            self._lag_since = None
            return
        if self._lag_since is None:
            self._lag_since = now
            return
        if now - self._lag_since < self.config.lag_sync_after:
            return
        peer = ahead[self.lag_syncs % len(ahead)]
        if self.site.request_sync(peer):
            self.lag_syncs += 1
        self._lag_since = now

    # -- status -----------------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        latencies = sorted(self.apply_latencies)

        def percentile(fraction: float) -> Optional[float]:
            if not latencies:
                return None
            index = min(len(latencies) - 1,
                        int(fraction * (len(latencies) - 1)))
            return round(latencies[index], 4)

        shed = self.transport.shed_totals()
        tree = self.site.doc.tree
        return {
            "site": self.config.site,
            "atoms": len(self.site),
            # Storage health (live mixed tree/array form): what the
            # tree is made of (one entry walk), its cumulative explode
            # counters, and the SDIS tombstones awaiting purge (O(1),
            # from the root's counts) beside those purged so far.
            "storage": {
                **tree.storage_counts(),
                "explodes": tree.explodes,
                "partial_explodes": tree.partial_explodes,
                "tombstones": tree.id_length - tree.live_length,
                "purged_tombstones": self.site.purged_tombstones,
            },
            "clock": {str(k): v for k, v in
                      sorted(self.site.broadcast.clock.items())},
            "connected": list(self.transport.connected),
            "inbound_depth": self._inbound.qsize(),
            "inflight_syncs": self._inflight_syncs,
            "frames_applied": self.frames_applied,
            "decode_errors": self.decode_errors,
            "apply_errors": self.apply_errors,
            "stream_resyncs": self.stream_resyncs,
            "stream_bytes_discarded": self.stream_bytes_discarded,
            "shed_inbound": self.shed_inbound,
            "declined_syncs": self.declined_syncs,
            "protocol_errors": self.protocol_errors,
            "lag_syncs": self.lag_syncs,
            "shed_low": shed["shed_low"],
            "shed_high": shed["shed_high"],
            "max_queue_depth": shed["max_depth_seen"],
            "apply_p50_ms": percentile(0.50),
            "apply_p99_ms": percentile(0.99),
            "sync_requests_sent": self.site.sync_requests_sent,
            "sync_responses_applied": self.site.sync_responses_applied,
            "sync_deltas_applied": self.site.sync_deltas_applied,
            "sync_declines_received": self.site.sync_declines_received,
            "recovered_events": self.site.recovered_events,
            "reshipped_envelopes": self.site.reshipped_envelopes,
            "last_error": self.last_error,
        }
