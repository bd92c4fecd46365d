"""One live TCP connection to a peer daemon.

A :class:`PeerConnection` owns the socket pair for exactly one peer:
a reader loop that reassembles segments (:mod:`repro.server.framing`)
and hands frames to the daemon's admission gate, and a writer loop
that drains the peer's bounded :class:`~repro.server.transport.
SendQueue`. ``await writer.drain()`` between segments is the
backpressure coupling: a peer that stops reading stalls the writer
task, the queue fills, and the watermark shedding in ``SendQueue``
takes over — memory stays bounded no matter how slow the consumer.

Identity is established by a **hello**: each side's first segment is
an ordinary :class:`~repro.replication.wire.AckFrame` carrying its
site id and applied clock, written directly on the socket *before*
the writer loop starts so it always precedes queued traffic (a
recovering daemon may have WAL-tail envelopes parked already). The
hello doubles as the first delivery — an ack is idempotent, and its
clock immediately feeds the receiver's stability tracker. Subsequent
idle-time heartbeats are the same frame, pushed through the low band.

Stream damage never escapes: the frame reader counts resyncs and the
bytes they discard (the daemon's ``stream_resyncs`` sums its readers)
and reading continues; payload-level corruption is caught later by
``decode_wire``'s CRC in the apply loop.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.core.disambiguator import SiteId
from repro.errors import DecodeError, FrameSyncError
from repro.replication.wire import AckFrame, decode_wire, encode_wire
from repro.server.framing import encode_segment

_READ_CHUNK = 65536


class PeerConnection:
    """Reader/writer tasks for one peer socket."""

    def __init__(self, daemon: "SiteDaemon",
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 expected_peer: Optional[SiteId] = None) -> None:
        self.daemon = daemon
        self.reader = reader
        self.writer = writer
        #: The dialer knows who it called; an accepted connection
        #: learns the peer from the hello.
        self.expected_peer = expected_peer
        self.peer: Optional[SiteId] = None
        self.frames = daemon.open_stream()
        loop = asyncio.get_event_loop()
        self.last_rx = loop.time()
        self.last_tx = loop.time()
        self.established = False
        self._writer_task: Optional[asyncio.Task] = None
        self._closing = False

    # -- lifecycle --------------------------------------------------------------------

    async def run(self) -> None:
        """Serve the connection until it closes; returns afterwards."""
        try:
            self._write_hello()
            # A peer that connects but never identifies itself must
            # not pin this socket forever: nobody supervises a
            # connection until it is attached, so the handshake
            # carries its own deadline.
            try:
                peer = await asyncio.wait_for(
                    self._handshake(), self.daemon.config.idle_timeout
                )
            except asyncio.TimeoutError:
                self.daemon.note_protocol_error("handshake timed out")
                return
            if peer is None:
                return
            if (self.expected_peer is not None
                    and peer != self.expected_peer):
                self.daemon.note_protocol_error(
                    f"dialed site {self.expected_peer} but "
                    f"{peer} answered"
                )
                return
            self.peer = peer
            if not self.daemon.attach_connection(self):
                return  # lost a reconnect race; the winner serves
            self.established = True
            self._writer_task = asyncio.get_event_loop().create_task(
                self._write_loop()
            )
            await self._read_loop()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            await self.close()

    async def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        self.daemon.detach_connection(self)
        self.daemon.close_stream(self.frames)
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
        try:
            self.writer.close()
            # A stalled peer can leave unflushable bytes in the
            # transport; close() then never completes. Bound the
            # graceful close and abort the socket if it overruns.
            try:
                await asyncio.wait_for(self.writer.wait_closed(), 1.0)
            except asyncio.TimeoutError:
                self.writer.transport.abort()
        except (ConnectionError, OSError):
            pass

    # -- handshake --------------------------------------------------------------------

    def _write_hello(self) -> None:
        site = self.daemon.site
        hello = AckFrame(site.site, site.broadcast.clock.copy())
        self.writer.write(encode_segment(encode_wire(hello)))
        self.last_tx = asyncio.get_event_loop().time()

    async def _handshake(self) -> Optional[SiteId]:
        """Read until the peer's hello identifies it (or EOF).

        One frame at a time: a fast peer's first chunk can carry the
        hello *and* a burst of queued traffic behind it, and those
        frames must stay buffered in the reader for the read loop —
        not be consumed and dropped here."""
        while True:
            payload = await self._next_frame()
            if payload is None:
                return None
            try:
                frame = decode_wire(payload)
            except DecodeError:
                self.daemon.decode_errors += 1
                continue
            if isinstance(frame, AckFrame):
                self.last_rx = asyncio.get_event_loop().time()
                # The hello is also a real ack: deliver it once the
                # daemon knows whose it is.
                await self.daemon.admit(frame.site, payload)
                return frame.site
            # Traffic before identity: unattributable, drop.
            self.daemon.note_protocol_error("frame received before hello")

    # -- serving ----------------------------------------------------------------------

    async def _next_frame(self) -> Optional[bytes]:
        """The next frame off the stream, or None at EOF.

        Frames first, socket second: the handshake may have left
        complete frames buffered in the reader (hello and traffic
        arriving in one chunk), and they must flow before blocking on
        the next read. A resync (the reader counts it) costs the
        garbage it discarded, and reading goes on."""
        while True:
            try:
                payload = self.frames.next_frame()
            except FrameSyncError:
                continue
            if payload is not None:
                return payload
            chunk = await self.reader.read(_READ_CHUNK)
            if not chunk:
                return None
            self.frames.feed(chunk)

    async def _read_loop(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            payload = await self._next_frame()
            if payload is None:
                return
            self.last_rx = loop.time()
            await self.daemon.admit(self.peer, payload)

    async def _write_loop(self) -> None:
        queue = self.daemon.transport.queues[self.peer]
        loop = asyncio.get_event_loop()
        while True:
            payload = queue.pop()
            if payload is None:
                await queue.wait()
                continue
            self.writer.write(encode_segment(payload))
            self.last_tx = loop.time()
            await self.writer.drain()

    def send_heartbeat(self) -> None:
        """Queue an idle-time keepalive (low band: sheds under load,
        when real traffic is advancing ``last_rx`` anyway)."""
        site = self.daemon.site
        frame = AckFrame(site.site, site.broadcast.clock.copy())
        self.daemon.transport.queues[self.peer].push(encode_wire(frame))
