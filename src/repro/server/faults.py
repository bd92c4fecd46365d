"""A fault-injecting TCP proxy for torturing daemons over real sockets.

The simulator injects loss, reordering and corruption *below* the
frame boundary abstraction; real TCP gives reliable ordered bytes but
adds its own pathologies — segments split and merged at arbitrary
points, connections stalling, connections dying. :class:`FaultyTransport`
sits between two daemons (point peer A's address at the proxy, the
proxy at peer B) and injects exactly those:

- **split**: every forwarded chunk is re-chunked at seeded random
  byte boundaries (mid-magic, mid-header, mid-payload — the
  :class:`~repro.server.framing.FrameReader` must not care); a chunk
  of two or more bytes is always cut at least once;
- **merge**: chunks are held briefly and coalesced, so one ``read()``
  on the far side spans several frames — drawn per chunk, or scripted
  by chunk ordinal (``merge_chunks``);
- **corrupt**: scripted by chunk ordinal (``corrupt_chunks``), one
  byte of a chunk is flipped in transit;
- **latency**: each chunk waits a seeded uniform delay;
- **stall**: after every N forwarded bytes the stream freezes for a
  while (the slow-consumer scenario that exercises watermark
  shedding and idle detection);
- **disconnect**: after N forwarded bytes the connection is severed
  (the supervisor's reconnect path), plus :meth:`sever` for scripted
  kills at a chosen moment.

All randomness comes from :func:`repro.util.rng.derive_rng` children
of ``plan.seed`` — a faulty run replays identically from its seed,
like every other fault simulation in this repo.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.util.rng import derive_rng


@dataclass(frozen=True)
class FaultPlan:
    """What the proxy does to the byte stream (seeded, deterministic)."""

    seed: int = 0
    #: Re-chunk forwarded bytes at random boundaries (1..chunk bytes).
    split: bool = False
    #: Probability a chunk is held and merged with the next one.
    merge_probability: float = 0.0
    #: Ceiling on held-and-merged bytes before a forced flush.
    merge_limit: int = 65536
    #: Scripted faults name chunks by 1-based ordinal: the chunks one
    #: direction of one proxied connection reads from its socket, in
    #: order (every connection and direction counts from 1). Each chunk
    #: named here is held and merged with the next one.
    merge_chunks: FrozenSet[int] = frozenset()
    #: Each chunk named here has its last byte flipped before it is
    #: forwarded. A chunk read whole from a socket ends at a segment
    #: boundary, so the flip lands in the CRC trailer of its last wire
    #: frame: the receiver's decoder rejects exactly that frame, and
    #: the framing keeps its alignment.
    corrupt_chunks: FrozenSet[int] = frozenset()
    #: Max per-chunk delay in seconds (uniform 0..latency).
    latency: float = 0.0
    #: Freeze the stream for ``stall_duration`` after every this many
    #: forwarded bytes (None disables).
    stall_every_bytes: Optional[int] = None
    stall_duration: float = 0.0
    #: Sever the connection after this many forwarded bytes per
    #: direction (None disables). Reconnects start a fresh count.
    disconnect_after_bytes: Optional[int] = None


class FaultyTransport:
    """One listening proxy port forwarding (with faults) to a target."""

    def __init__(self, target_host: str, target_port: int,
                 plan: FaultPlan = FaultPlan(),
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.target = (target_host, target_port)
        self.plan = plan
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: List[asyncio.StreamWriter] = []
        self._connection_counter = 0
        #: Counters for assertions: the faults must actually happen.
        self.connections = 0
        self.forwarded_bytes = 0
        self.splits = 0
        self.merges = 0
        self.corruptions = 0
        self.stalls = 0
        self.disconnects = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_client, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.sever()

    def sever(self) -> None:
        """Kill every live proxied connection right now (scripted
        fault). Daemons' supervisors will redial through the proxy."""
        for writer in self._writers:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        if self._writers:
            self.disconnects += 1
        self._writers = []

    async def _on_client(self, client_reader: asyncio.StreamReader,
                         client_writer: asyncio.StreamWriter) -> None:
        try:
            target_reader, target_writer = await asyncio.open_connection(
                *self.target
            )
        except OSError:
            client_writer.close()
            return
        self.connections += 1
        self._connection_counter += 1
        index = self._connection_counter
        self._writers.extend([client_writer, target_writer])
        await asyncio.gather(
            self._pump(client_reader, target_writer,
                       derive_rng(self.plan.seed, "fault", index, "fwd")),
            self._pump(target_reader, client_writer,
                       derive_rng(self.plan.seed, "fault", index, "rev")),
            return_exceptions=True,
        )
        for writer in (client_writer, target_writer):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    #: How long a merge-hold survives without fresh bytes before it is
    #: force-flushed. A kernel coalesces segments that arrive close
    #: together; it never sits on delivered bytes indefinitely — and a
    #: held handshake hello with no follow-up traffic must not
    #: deadlock the connection.
    MERGE_FLUSH_SECONDS = 0.05

    async def _pump(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, rng) -> None:
        plan = self.plan
        state = {"forwarded": 0, "next_stall": plan.stall_every_bytes}
        held = b""
        ordinal = 0

        async def forward(data: bytes) -> bool:
            """Split and forward; False once the link is severed."""
            for piece in self._pieces(data, rng):
                writer.write(piece)
                await writer.drain()
                state["forwarded"] += len(piece)
                self.forwarded_bytes += len(piece)
                if (plan.disconnect_after_bytes is not None
                        and state["forwarded"]
                        >= plan.disconnect_after_bytes):
                    self.disconnects += 1
                    writer.close()
                    return False
                if (state["next_stall"] is not None
                        and state["forwarded"] >= state["next_stall"]):
                    self.stalls += 1
                    state["next_stall"] = (state["forwarded"]
                                           + plan.stall_every_bytes)
                    await asyncio.sleep(plan.stall_duration)
            return True

        try:
            while True:
                if held:
                    try:
                        chunk = await asyncio.wait_for(
                            reader.read(65536), self.MERGE_FLUSH_SECONDS
                        )
                    except asyncio.TimeoutError:
                        data, held = held, b""
                        if not await forward(data):
                            return
                        continue
                else:
                    chunk = await reader.read(65536)
                if not chunk:
                    if held and not await forward(held):
                        return
                    return
                ordinal += 1
                if ordinal in plan.corrupt_chunks:
                    chunk = chunk[:-1] + bytes((chunk[-1] ^ 0xFF,))
                    self.corruptions += 1
                if plan.latency > 0.0:
                    await asyncio.sleep(rng.uniform(0.0, plan.latency))
                if (len(held) + len(chunk) < plan.merge_limit
                        and (ordinal in plan.merge_chunks
                             or (plan.merge_probability > 0.0
                                 and rng.random()
                                 < plan.merge_probability))):
                    held += chunk
                    self.merges += 1
                    continue
                data, held = held + chunk, b""
                if not await forward(data):
                    return
        except (ConnectionError, OSError, asyncio.CancelledError):
            return

    def _pieces(self, data: bytes, rng) -> List[bytes]:
        if not self.plan.split or len(data) <= 1:
            return [data]
        pieces: List[bytes] = []
        position = 0
        # The first piece stops short of the end: every chunk is cut.
        limit = len(data) - 1
        while position < len(data):
            step = rng.randint(1, max(1, min(limit - position, 512)))
            limit = len(data)
            pieces.append(data[position:position + step])
            position += step
        if len(pieces) > 1:
            self.splits += len(pieces) - 1
        return pieces
