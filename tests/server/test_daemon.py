"""In-process daemon clusters over real loopback sockets.

The acceptance shape of the tentpole, at test-suite speed: daemons
speaking the unchanged wire grammar over TCP converge PosID-
identically (the ``identity_digest`` oracle, not just visible text),
survive fault-injecting proxies between them, reconnect after severed
links, answer a line-JSON admin protocol, and restart from a durable
store with their document intact.  The multi-process variant with
SIGKILL lives in ``test_daemon_process.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.server.admin import identity_digest
from repro.server.daemon import SiteDaemon
from repro.server.faults import FaultPlan, FaultyTransport

from tests.server.conftest import (
    free_ports,
    make_cluster_configs,
    start_cluster,
    stop_cluster,
    wait_until,
)


def converged(daemons, expected_len=None):
    """All daemons agree on the full PosID identity sequence."""
    digests = {identity_digest(daemon.site) for daemon in daemons}
    if len(digests) != 1:
        return False
    if expected_len is not None:
        return all(len(d.site) == expected_len for d in daemons)
    return True


async def admin_request(port, op, **fields):
    """One line-JSON admin round trip on the running loop (the
    blocking AdminClient is for other processes; tests share the
    daemon's own loop)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = dict(fields)
        payload["op"] = op
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()
        line = await reader.readline()
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestTwoDaemonConvergence:
    def test_edit_replicates_and_digests_agree(self, run):
        async def scenario():
            daemons = await start_cluster(make_cluster_configs(2))
            d1, d2 = daemons
            try:
                assert await wait_until(
                    lambda: 2 in d1.transport.connected
                    and 1 in d2.transport.connected
                )
                d1.site.insert_text(0, list("hello"))
                assert await wait_until(lambda: d2.site.text() == "hello")
                assert converged(daemons, expected_len=5)
                # Concurrent edits from both ends also converge.
                d1.site.insert_text(5, list(" world"))
                d2.site.insert_text(0, list(">> "))
                assert await wait_until(
                    lambda: converged(daemons, expected_len=14)
                )
                assert d1.site.text() == ">> hello world"
            finally:
                await stop_cluster(daemons)

        run(scenario())


class TestAdminProtocol:
    def test_full_op_surface_over_the_socket(self, run):
        async def scenario():
            daemons = await start_cluster(make_cluster_configs(2))
            d1, d2 = daemons
            try:
                assert await wait_until(
                    lambda: 2 in d1.transport.connected
                )
                port = d1.admin_port
                assert (await admin_request(port, "ping")) == {
                    "ok": True, "site": 1,
                }
                edited = await admin_request(port, "edit",
                                             index=0, text="abc")
                assert edited["ok"] and edited["atoms"] == 3
                text = await admin_request(port, "text")
                assert text["text"] == "abc"
                deleted = await admin_request(port, "delete",
                                              index=1, count=1)
                assert deleted["ok"] and deleted["atoms"] == 2
                assert await wait_until(lambda: d2.site.text() == "ac")
                # The digest matches the in-process oracle exactly.
                digest = await admin_request(port, "digest")
                assert digest["digest"] == identity_digest(d1.site)
                remote = await admin_request(d2.admin_port, "digest")
                assert remote["digest"] == digest["digest"]
                status = await admin_request(port, "status")
                assert status["ok"] and status["site"] == 1
                assert status["connected"] == [2]
                assert status["frames_applied"] >= 1
                storage = status["storage"]
                assert set(storage) == {
                    "array_leaves", "explodes", "partial_explodes",
                }
                assert all(value >= 0 for value in storage.values())
                synced = await admin_request(port, "sync", peer=2)
                assert synced["ok"]
                # Errors are typed JSON, never closed sockets.
                bad_op = await admin_request(port, "warp")
                assert not bad_op["ok"] and bad_op["kind"] == "bad-request"
                bad_index = await admin_request(port, "edit",
                                                index=99, text="x")
                assert not bad_index["ok"]
                assert bad_index["kind"] == "bad-request"
            finally:
                await stop_cluster(daemons)

        run(scenario())

    def test_shutdown_op_drains_and_closes(self, run):
        async def scenario():
            daemons = await start_cluster(make_cluster_configs(1))
            daemon = daemons[0]
            response = await admin_request(daemon.admin_port, "shutdown")
            assert response == {"ok": True, "closing": True}
            await asyncio.wait_for(daemon.wait_closed(), timeout=10.0)
            assert daemon.closing

        run(scenario())


class TestDurableRestart:
    def test_graceful_shutdown_then_restart_preserves_identity(
            self, run, tmp_path):
        store = str(tmp_path / "site1")

        async def first_life():
            (config,) = make_cluster_configs(1, store_path=store)
            daemons = await start_cluster([config])
            daemon = daemons[0]
            daemon.site.insert_text(0, list("durable"))
            daemon.site.delete_range(0, 2)
            digest = identity_digest(daemon.site)
            await daemon.shutdown()  # drains, checkpoints, closes WAL
            return digest

        async def second_life(expected_digest):
            (config,) = make_cluster_configs(1, store_path=store)
            daemons = await start_cluster([config])
            daemon = daemons[0]
            try:
                assert daemon.site.text() == "rable"
                assert identity_digest(daemon.site) == expected_digest
            finally:
                await daemon.shutdown()

        digest = run(first_life())
        run(second_life(digest))


class TestReconnect:
    def test_severed_link_redials_and_repairs(self, run):
        async def scenario():
            ports = free_ports(2)
            # Site 2 dials site 1 (larger id dials smaller), so the
            # proxy sits on that one dial path.
            proxy = FaultyTransport("127.0.0.1", ports[0])
            await proxy.start()
            configs = make_cluster_configs(
                2, ports=ports,
                peer_overrides={(2, 1): ("127.0.0.1", proxy.port)},
                heartbeat_interval=0.1, idle_timeout=1.0,
            )
            daemons = await start_cluster(configs)
            d1, d2 = daemons
            try:
                assert await wait_until(
                    lambda: 1 in d2.transport.connected
                )
                d1.site.insert_text(0, list("pre"))
                assert await wait_until(lambda: d2.site.text() == "pre")

                proxy.sever()
                assert await wait_until(
                    lambda: 1 not in d2.transport.connected
                )
                # Edits while the link is down...
                d1.site.insert_text(3, list("-down"))
                d2.site.insert_text(0, list("x"))
                # ...heal after the supervisor redials through the
                # proxy and anti-entropy repairs the gap.
                assert await wait_until(
                    lambda: 1 in d2.transport.connected
                )
                assert await wait_until(
                    lambda: converged(daemons, expected_len=9)
                )
                assert proxy.connections >= 2  # the redial happened
            finally:
                await stop_cluster(daemons)
                await proxy.stop()

        run(scenario())


class TestFrontierLagDetector:
    def test_lost_envelope_repaired_via_heartbeat_lag(self, run):
        # The failure the simulator can never produce: an envelope
        # written into a dying socket is gone — not buffered anywhere,
        # so the replication layer sees no causal gap. The lagging
        # daemon must notice from heartbeat acks that a peer's
        # frontier is ahead and pull a sync on its own.
        async def scenario():
            ports = free_ports(2)
            proxy = FaultyTransport("127.0.0.1", ports[0])
            await proxy.start()
            configs = make_cluster_configs(
                2, ports=ports,
                peer_overrides={(2, 1): ("127.0.0.1", proxy.port)},
                heartbeat_interval=0.1, idle_timeout=1.0,
                lag_sync_after=0.3,
            )
            daemons = await start_cluster(configs)
            d1, d2 = daemons
            try:
                assert await wait_until(
                    lambda: 1 in d2.transport.connected
                )
                proxy.sever()
                assert await wait_until(
                    lambda: 2 not in d1.transport.connected
                )
                # The edit parks in d1's queue for the dead link —
                # clearing it is exactly the loss a dying socket
                # inflicts: the envelope is nowhere, no gap buffers.
                d1.site.insert_text(0, list("lost"))
                d1.transport.queues[2].clear()
                assert await wait_until(
                    lambda: 1 in d2.transport.connected
                )
                assert await wait_until(
                    lambda: d2.site.text() == "lost", timeout=30.0
                )
                assert d2.lag_syncs >= 1  # the detector did the repair
                assert converged(daemons, expected_len=4)
            finally:
                await stop_cluster(daemons)
                await proxy.stop()

        run(scenario())


    def test_inbound_ack_is_decoded_once(self, run, monkeypatch):
        # The site's handler decodes the ack; the daemon learns the
        # peer's clock from that decode instead of decoding again.
        from repro.replication import site as site_module
        from repro.replication.clock import VectorClock
        from repro.replication.wire import AckFrame, decode_wire, encode_wire
        from repro.server import daemon as daemon_module

        decodes = []

        def counting(data):
            decodes.append(data)
            return decode_wire(data)

        monkeypatch.setattr(site_module, "decode_wire", counting)
        monkeypatch.setattr(daemon_module, "decode_wire", counting,
                            raising=False)

        async def scenario():
            (config,) = make_cluster_configs(1, tick_interval=10.0)
            (daemon,) = await start_cluster([config])
            try:
                ack = encode_wire(AckFrame(9, VectorClock({9: 3})))
                await daemon.admit(9, ack)
                assert await wait_until(lambda: daemon.frames_applied == 1)
                assert daemon._peer_clocks[9] == VectorClock({9: 3})
                assert decodes == [ack]
            finally:
                await daemon.shutdown()

        run(scenario())


class TestFiveDaemonFaultyCluster:
    def test_convergence_under_split_merge_latency_and_sever(self, run):
        # Five daemons, three dial paths routed through fault proxies
        # that split segments at arbitrary byte boundaries, merge
        # chunks across frame boundaries, and add latency; one proxy
        # is severed mid-run. Everything must still converge to one
        # PosID identity digest.
        async def scenario():
            ports = free_ports(5)
            # Every chunk of two or more bytes is cut; the second chunk
            # of each direction of each proxied connection is held and
            # merged with the third.
            plan = FaultPlan(seed=42, split=True,
                             merge_chunks=frozenset({2}), latency=0.01)
            # Larger id dials smaller: (3,1), (4,2), (5,3) are real
            # dial paths to splice proxies into.
            proxies = {
                (3, 1): FaultyTransport("127.0.0.1", ports[0], plan),
                (4, 2): FaultyTransport("127.0.0.1", ports[1], plan),
                (5, 3): FaultyTransport("127.0.0.1", ports[2], plan),
            }
            for proxy in proxies.values():
                await proxy.start()
            overrides = {
                pair: ("127.0.0.1", proxy.port)
                for pair, proxy in proxies.items()
            }
            configs = make_cluster_configs(
                5, ports=ports, peer_overrides=overrides,
                heartbeat_interval=0.1, idle_timeout=2.0,
            )
            daemons = await start_cluster(configs)
            try:
                assert await wait_until(
                    lambda: all(len(d.transport.connected) == 4
                                for d in daemons)
                )
                words = ["alpha ", "bravo ", "charlie ", "delta ", "echo "]
                for daemon, word in zip(daemons, words):
                    daemon.site.insert_text(0, list(word))
                    await asyncio.sleep(0.02)
                # Mid-run fault: kill every connection through one
                # proxy; the supervisors redial through it.
                proxies[(4, 2)].sever()
                for index, daemon in enumerate(daemons):
                    daemon.site.insert_text(
                        len(daemon.site), list(f"+{index + 1}")
                    )
                    await asyncio.sleep(0.02)
                total = sum(len(w) for w in words) + 2 * len(daemons)
                assert await wait_until(
                    lambda: converged(daemons, expected_len=total),
                    timeout=30.0,
                )
                texts = {d.site.text() for d in daemons}
                assert len(texts) == 1
                # The scripted faults happened on every proxy: each
                # carried a hello and then edits in both directions.
                for proxy in proxies.values():
                    assert proxy.splits > 0
                    assert proxy.merges >= 1
                assert proxies[(4, 2)].disconnects >= 1
                # And the stream framing absorbed them: no daemon saw
                # decode errors or resyncs from split/merge chunking.
                for daemon in daemons:
                    assert daemon.decode_errors == 0
                    assert daemon.stream_resyncs == 0
            finally:
                await stop_cluster(daemons)
                for proxy in proxies.values():
                    await proxy.stop()

        run(scenario())


class TestScriptedCorruption:
    def test_corrupted_chunk_costs_one_frame_and_the_pair_converges(self, run):
        # Site 2 dials site 1 through a proxy that flips the last byte
        # of the second chunk in each direction (the first chunk after
        # the hello). That byte ends a segment, so it lands in a wire
        # frame's CRC trailer: the receiver rejects exactly that frame
        # as a decode error and the framing never loses alignment.
        # Both daemons write, so each can lose one of the other's
        # edits and hold the later ones behind a gap: both are then
        # gap-blocked and concurrent with their only peer, and the
        # pair converges only because a blocked responder still serves
        # the sound delta instead of declining BUSY.
        async def scenario():
            ports = free_ports(2)
            proxy = FaultyTransport(
                "127.0.0.1", ports[0],
                FaultPlan(corrupt_chunks=frozenset({2})),
            )
            await proxy.start()
            configs = make_cluster_configs(
                2, ports=ports,
                peer_overrides={(2, 1): ("127.0.0.1", proxy.port)},
                heartbeat_interval=0.1,
            )
            daemons = await start_cluster(configs)
            d1, d2 = daemons
            try:
                assert await wait_until(
                    lambda: 2 in d1.transport.connected
                    and 1 in d2.transport.connected
                )
                words = {d1: ("one ", "two ", "three "),
                         d2: ("alpha ", "bravo ", "charlie ")}
                for turn in range(3):
                    for daemon, own in words.items():
                        daemon.site.insert_text(len(daemon.site),
                                                list(own[turn]))
                        await asyncio.sleep(0.02)
                typed = "".join("".join(own) for own in words.values())
                assert await wait_until(
                    lambda: converged(daemons, expected_len=len(typed)),
                    timeout=30.0,
                )
                assert d1.site.text() == d2.site.text()
                assert sorted(d1.site.text()) == sorted(typed)
                assert await wait_until(lambda: proxy.corruptions == 2)
                assert await wait_until(
                    lambda: d1.decode_errors == d2.decode_errors == 1
                )
                assert d1.stream_resyncs == d2.stream_resyncs == 0
                assert proxy.connections == 1
            finally:
                await stop_cluster(daemons)
                await proxy.stop()

        run(scenario())
