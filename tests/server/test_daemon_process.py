"""The acceptance gauntlet: real daemon processes, real faults.

Five ``python -m repro.server`` processes on loopback, three dial
paths routed through fault-injecting proxies (segment splits, merges,
latency), every site edited through its admin socket, one daemon
SIGKILLed mid-run and restarted on its durable store — and all five
must converge to one PosID identity digest, then exit 0 on SIGTERM.

This is the one test where the whole stack runs exactly as deployed:
separate interpreters, separate stores, bytes on real sockets, and a
crash that no amount of in-process mocking can fake.
"""

from __future__ import annotations

import asyncio
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.server.admin import AdminClient
from repro.server.faults import FaultPlan, FaultyTransport

from tests.server.conftest import free_ports

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: (dialer, dialee) pairs carrying proxies — larger site dials
#: smaller, so these are real dial paths in a five-site mesh.
PROXIED_PATHS = [(3, 1), (4, 2), (5, 3)]

#: The line ``python -m repro.server`` prints once it listens.
SERVING = re.compile(r"serving on \S+ \(admin (\d+)\)")


class ProxyLoop:
    """FaultyTransports need an event loop; the test is synchronous
    subprocess herding, so the proxies live on a dedicated thread."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()

    def submit(self, coroutine):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.loop
        ).result(timeout=10.0)

    def call(self, function):
        done = threading.Event()
        self.loop.call_soon_threadsafe(lambda: (function(), done.set()))
        assert done.wait(timeout=10.0)

    def stop(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


def daemon_argv(site, ports, store, proxy_ports):
    argv = [
        sys.executable, "-m", "repro.server",
        "--site", str(site),
        "--port", str(ports[site - 1]),
        "--admin-port", "0",
        "--store", str(store),
        "--tick-interval", "0.05",
        "--heartbeat-interval", "0.2",
        "--idle-timeout", "5.0",
    ]
    for peer in range(1, len(ports) + 1):
        if peer == site:
            continue
        port = proxy_ports.get((site, peer), ports[peer - 1])
        argv += ["--peer", f"{peer}=127.0.0.1:{port}"]
    return argv


def spawn(argv):
    # Unbuffered pipes: ``admin_port_of`` selects on the descriptor, so
    # no line may wait in a reader-side buffer.
    return subprocess.Popen(
        argv, env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    )


def admin_port_of(process, timeout=15.0):
    """The admin port a daemon started with ``--admin-port 0`` bound,
    read from its ``serving on ... (admin N)`` line."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [],
                                    deadline - time.monotonic())
        if not ready:
            break
        line = process.stdout.readline().decode()
        if not line:
            break
        match = SERVING.search(line)
        if match:
            return int(match.group(1))
    process.kill()
    raise AssertionError(
        f"daemon printed no serving line: {process.stderr.read()!r}")


def wait_admin(port, timeout=15.0):
    """Retry until the daemon's admin socket answers a ping."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with AdminClient("127.0.0.1", port, timeout=2.0) as client:
                if client.request("ping").get("ok"):
                    return True
        except (OSError, ConnectionError, ValueError):
            time.sleep(0.1)
    return False


def admin(port, op, **fields):
    with AdminClient("127.0.0.1", port, timeout=5.0) as client:
        return client.request(op, **fields)


def wait_converged(admin_ports, expected_atoms, timeout=60.0):
    """Poll every daemon's digest until all agree (hard deadline)."""
    deadline = time.monotonic() + timeout
    last = {}
    while time.monotonic() < deadline:
        try:
            last = {port: admin(port, "digest") for port in admin_ports}
        except (OSError, ConnectionError, ValueError):
            time.sleep(0.2)
            continue
        digests = {reply["digest"] for reply in last.values()}
        atoms = {reply["atoms"] for reply in last.values()}
        if len(digests) == 1 and atoms == {expected_atoms}:
            return last
        time.sleep(0.2)
    raise AssertionError(
        f"no convergence within {timeout}s: "
        + str({port: (reply.get('atoms'), reply.get('digest', '?')[:12])
               for port, reply in last.items()})
    )


@pytest.mark.slow
class TestFiveProcessCluster:
    def test_sigkill_recovery_and_identical_digests(self, tmp_path):
        n = 5
        # Peer ports come from below the ephemeral range; admin ports
        # are bound by the daemons themselves (``--admin-port 0``).
        peer_ports = free_ports(n)
        stores = {s: tmp_path / f"site{s}" for s in range(1, n + 1)}
        plan = FaultPlan(seed=7, split=True, merge_probability=0.25,
                         latency=0.005)

        proxy_loop = ProxyLoop()
        proxies = {}
        proxy_ports = {}
        processes = {}
        try:
            for dialer, dialee in PROXIED_PATHS:
                proxy = FaultyTransport(
                    "127.0.0.1", peer_ports[dialee - 1], plan
                )
                proxy_loop.submit(proxy.start())
                proxies[(dialer, dialee)] = proxy
                proxy_ports[(dialer, dialee)] = proxy.port

            for site in range(1, n + 1):
                processes[site] = spawn(daemon_argv(
                    site, peer_ports, stores[site], proxy_ports,
                ))
            admin_ports = [admin_port_of(processes[site])
                           for site in range(1, n + 1)]
            for site in range(1, n + 1):
                assert wait_admin(admin_ports[site - 1]), \
                    f"site {site} admin never came up"

            # Round one: every site contributes through its admin
            # socket while the proxies mangle the dial paths.
            expected = 0
            for site in range(1, n + 1):
                word = f"s{site} "
                reply = admin(admin_ports[site - 1], "edit",
                              index=0, text=word)
                assert reply["ok"], reply
                expected += len(word)
            wait_converged(admin_ports, expected)

            # The crash: SIGKILL site 4 *right after* an edit, so its
            # WAL tail holds work no peer may have seen yet.
            victim = 4
            word = "unflushed "
            assert admin(admin_ports[victim - 1], "edit",
                         index=0, text=word)["ok"]
            expected += len(word)
            processes[victim].kill()  # SIGKILL: no drain, no checkpoint
            processes[victim].wait(timeout=10.0)

            # Survivors keep editing while the victim is down.
            for site in (1, 2, 3, 5):
                word = f"+{site} "
                assert admin(admin_ports[site - 1], "edit",
                             index=0, text=word)["ok"]
                expected += len(word)

            # Restart on the same store: WAL replay, checkpoint load,
            # rejoin, and rebroadcast of the unacknowledged tail.
            processes[victim] = spawn(daemon_argv(
                victim, peer_ports, stores[victim], proxy_ports,
            ))
            admin_ports[victim - 1] = admin_port_of(processes[victim])
            assert wait_admin(admin_ports[victim - 1]), \
                "victim never came back"
            status = admin(admin_ports[victim - 1], "status")
            assert status["recovered_events"] > 0  # the WAL did work

            replies = wait_converged(admin_ports, expected)
            # PosID identity, not just text: the digest covers every
            # position identifier binding.
            assert len({r["digest"] for r in replies.values()}) == 1

            # The proxies really were in the path.
            assert sum(p.splits for p in proxies.values()) > 0
            assert sum(p.connections for p in proxies.values()) > 0

            # Clean exit: SIGTERM drains, checkpoints, exits 0.
            for site, process in processes.items():
                process.send_signal(signal.SIGTERM)
            for site, process in processes.items():
                assert process.wait(timeout=15.0) == 0, \
                    f"site {site} exited {process.returncode}"
        finally:
            for process in processes.values():
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10.0)
            for proxy in proxies.values():
                try:
                    proxy_loop.submit(proxy.stop())
                except Exception:
                    pass
            proxy_loop.stop()
