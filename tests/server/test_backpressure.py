"""Bounded queues: band priority, watermark shedding, overload gates.

The acceptance property: a slow or stalled consumer costs a *bounded*
number of buffered frames — watermark shedding is observed, depth
never exceeds the cap, and refusals are typed, not silent drops of
unrecoverable work.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import encoding
from repro.core.treedoc import Treedoc
from repro.errors import OverloadedError
from repro.replication.clock import VectorClock
from repro.replication.wire import (
    DECLINE_BUSY,
    AckFrame,
    EnvelopeFrame,
    SyncDecline,
    SyncRequest,
    encode_wire,
)
from repro.server.framing import FrameReader, encode_segment
from repro.server.transport import SendQueue, SocketTransport

from tests.server.conftest import (
    free_ports,
    make_cluster_configs,
    start_cluster,
    wait_until,
)


def _envelope_bytes(text="x", origin=1, seq=1):
    doc = Treedoc(site=origin)
    payload, bits = encoding.encode_batch(doc.insert_text(0, list(text)))
    return encode_wire(
        EnvelopeFrame(origin, VectorClock({origin: seq}), payload, bits)
    )


def _ack_bytes(site=1):
    return encode_wire(AckFrame(site, VectorClock({site: 1})))


class TestSendQueue:
    def _queue(self, high_watermark=4, max_depth=8):
        async def build():
            return SendQueue(high_watermark, max_depth)

        return asyncio.run(build())

    def test_high_band_drains_first(self):
        queue = self._queue()
        ack = _ack_bytes()
        envelope = _envelope_bytes()
        queue.push(ack)
        queue.push(envelope)
        assert queue.pop() == envelope  # causal traffic jumps the acks
        assert queue.pop() == ack
        assert queue.pop() is None

    def test_low_band_sheds_at_watermark(self):
        queue = self._queue(high_watermark=3, max_depth=8)
        for _ in range(3):
            assert queue.push(_ack_bytes())
        assert not queue.push(_ack_bytes())  # watermark: acks shed
        assert queue.push(_envelope_bytes())  # envelopes still admitted
        assert queue.shed_low == 1
        assert queue.shed_high == 0
        assert queue.depth == 4

    def test_high_band_sheds_at_hard_cap(self):
        queue = self._queue(high_watermark=2, max_depth=4)
        for seq in range(4):
            assert queue.push(_envelope_bytes(seq=seq + 1))
        assert not queue.push(_envelope_bytes(seq=9))
        assert queue.shed_high == 1
        assert queue.depth == 4  # never exceeds the cap
        assert queue.max_depth_seen == 4

    def test_depth_stays_bounded_under_any_mix(self):
        queue = self._queue(high_watermark=5, max_depth=10)
        for round_number in range(100):
            queue.push(_ack_bytes())
            queue.push(_envelope_bytes(seq=round_number + 1))
            assert queue.depth <= queue.max_depth
        assert queue.shed_low > 0
        assert queue.shed_high > 0

    def test_clear_reports_dropped(self):
        queue = self._queue()
        queue.push(_ack_bytes())
        queue.push(_envelope_bytes())
        assert queue.clear() == 2
        assert queue.depth == 0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            self._queue(high_watermark=0)
        with pytest.raises(ValueError):
            self._queue(high_watermark=9, max_depth=8)


class TestSocketTransport:
    def test_eager_queues_park_preconnection_broadcasts(self):
        # A recovering site broadcasts its WAL tail before any peer is
        # connected: the frames must wait in bounded queues, not die.
        transport = SocketTransport(1, {2: ("h", 1), 3: ("h", 2)})
        transport.broadcast(1, _envelope_bytes())
        assert transport.queues[2].depth == 1
        assert transport.queues[3].depth == 1

    def test_unknown_destination_counts_not_raises(self):
        transport = SocketTransport(1, {2: ("h", 1)})
        transport.send(1, 99, _envelope_bytes())
        assert transport.unroutable == 1

    def test_roster_follows_connectivity(self):
        transport = SocketTransport(2, {1: ("h", 1), 3: ("h", 2)})
        assert transport.sites == (2,)
        transport.mark_connected(3)
        assert transport.sites == (2, 3)
        assert transport.reachable(2, 3)
        assert not transport.reachable(2, 1)
        transport.mark_disconnected(3)
        assert transport.sites == (2,)

    def test_rejects_foreign_site_registration(self):
        transport = SocketTransport(1, {})
        with pytest.raises(ValueError):
            transport.register(2, lambda src, data: None)


class TestStalledConsumer:
    def test_stalled_peer_costs_bounded_memory(self, run, tmp_path):
        # A peer that completes the hello and then never reads again:
        # TCP buffers fill, the writer task stalls in drain(), and the
        # per-peer queue sheds at its bounds instead of growing.
        async def scenario():
            import socket as socket_module

            hello = encode_segment(encode_wire(
                AckFrame(2, VectorClock())
            ))

            handler_tasks = []

            async def stalled_peer(reader, writer):
                handler_tasks.append(asyncio.current_task())
                writer.write(hello)
                await writer.drain()
                try:
                    await asyncio.sleep(3600)  # never reads, never answers
                except asyncio.CancelledError:
                    writer.close()

            # Tiny receive buffer (set before listen so accepted
            # sockets inherit it and auto-tuning is off): the kernel
            # cannot absorb the blast on the consumer's behalf.
            raw = socket_module.socket()
            raw.setsockopt(socket_module.SOL_SOCKET,
                           socket_module.SO_RCVBUF, 4096)
            raw.bind(("127.0.0.1", 0))
            raw.listen()
            stall_port = raw.getsockname()[1]
            stall_server = await asyncio.start_server(stalled_peer, sock=raw)
            (config,) = make_cluster_configs(
                1, high_watermark=8, max_depth=16, tick_interval=10.0,
                heartbeat_interval=30.0, idle_timeout=3600.0,
            )
            config.site = 3  # larger id: this side dials the stalled peer
            config.peers = {2: ("127.0.0.1", stall_port)}
            daemons = await start_cluster([config])
            daemon = daemons[0]
            try:
                assert await wait_until(
                    lambda: 2 in daemon.transport.connected, timeout=5.0
                )
                connection = daemon.connections[2]
                sock = connection.writer.get_extra_info("socket")
                sock.setsockopt(socket_module.SOL_SOCKET,
                                socket_module.SO_SNDBUF, 4096)
                connection.writer.transport.set_write_buffer_limits(
                    high=4096, low=1024
                )
                queue = daemon.transport.queues[2]
                # Blast far more than cap + buffers can hold: large
                # pre-built envelopes straight through the transport
                # (the queue/writer path is under test, not the editor).
                bulk = encode_wire(EnvelopeFrame(
                    3, VectorClock({3: 1}), b"\x00" * 8192, 8192 * 8
                ))
                for _ in range(300):
                    daemon.transport.send(3, 2, bulk)
                    await asyncio.sleep(0)
                assert queue.depth <= queue.max_depth
                assert queue.shed_high > 0  # hard cap engaged
                assert queue.max_depth_seen <= queue.max_depth
                # Low-band traffic sheds at the watermark while full.
                before = queue.shed_low
                daemon.site.request_sync(2)
                assert queue.shed_low == before + 1
            finally:
                await daemons[0].shutdown()
                for task in handler_tasks:
                    task.cancel()
                stall_server.close()
                await stall_server.wait_closed()

        run(scenario())


class TestAdmissionGate:
    def test_sync_requests_declined_busy_when_saturated(self, run):
        # max_inflight_syncs=0: every remote SyncRequest is refused
        # with a typed SyncDecline(busy) the requester can score.
        async def scenario():
            configs = make_cluster_configs(
                2, tick_interval=10.0, heartbeat_interval=30.0,
            )
            configs[1].max_inflight_syncs = 0
            daemons = await start_cluster(configs)
            d1, d2 = daemons
            try:
                assert await wait_until(
                    lambda: 2 in d1.transport.connected, timeout=5.0
                )
                d1.site.request_sync(2)
                assert await wait_until(
                    lambda: d1.site.sync_declines_received >= 1,
                    timeout=5.0,
                )
                assert d2.declined_syncs >= 1
            finally:
                for daemon in daemons:
                    await daemon.shutdown()

        run(scenario())

    def test_local_writes_refused_typed_when_full(self, run):
        async def scenario():
            (config,) = make_cluster_configs(
                1, inbound_depth=4, tick_interval=10.0,
            )
            daemons = await start_cluster([config])
            daemon = daemons[0]
            try:
                for _ in range(4):
                    daemon._inbound.put_nowait((9, b"\x00", None))
                with pytest.raises(OverloadedError):
                    daemon.check_admission()
                # The wire-side gate sheds and declines, typed.
                before = daemon.shed_inbound
                request = encode_wire(SyncRequest(9, VectorClock()))
                await daemon.admit(9, request)
                assert daemon.shed_inbound == before + 1
            finally:
                await daemon.shutdown()

        run(scenario())
