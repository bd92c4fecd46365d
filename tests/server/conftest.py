"""Helpers for the daemon tests: ports, loops, loopback clusters."""

from __future__ import annotations

import asyncio
import random
import socket
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from repro.server.daemon import DaemonConfig, SiteDaemon


#: Where Linux says its ephemeral port range is.
_EPHEMERAL_RANGE = Path("/proc/sys/net/ipv4/ip_local_port_range")


def ephemeral_low() -> int:
    """The lowest port the OS draws from for outgoing dials and
    ``bind(0)`` (Linux's default, 32768, where it does not say)."""
    try:
        return int(_EPHEMERAL_RANGE.read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 32768


def free_ports(count: int) -> List[int]:
    """Distinct listen ports, free when checked, drawn from below the
    ephemeral range: the probe sockets close before the daemons bind,
    and no dial or ``bind(0)`` in between (a peer's, a proxy's) can take
    a port from outside that range."""
    low = ephemeral_low()
    rng = random.Random()
    ports: List[int] = []
    while len(ports) < count:
        port = rng.randrange(low // 2, low)
        if port in ports:
            continue
        with socket.socket() as sock:
            try:
                sock.bind(("127.0.0.1", port))
            except OSError:
                continue
        ports.append(port)
    return ports


def make_cluster_configs(
    n_sites: int,
    ports: Optional[List[int]] = None,
    peer_overrides: Optional[Dict[Tuple[int, int], Tuple[str, int]]] = None,
    **config_kwargs,
) -> List[DaemonConfig]:
    """Fully-meshed daemon configs for sites 1..n on loopback.

    ``peer_overrides`` maps (site, peer) to an alternative address —
    how a FaultyTransport proxy is spliced into one direction's dials.
    """
    ports = ports or free_ports(n_sites)
    overrides = peer_overrides or {}
    configs = []
    for index in range(n_sites):
        site = index + 1
        peers = {}
        for other_index in range(n_sites):
            other = other_index + 1
            if other == site:
                continue
            peers[other] = overrides.get(
                (site, other), ("127.0.0.1", ports[other_index])
            )
        configs.append(DaemonConfig(
            site=site, port=ports[index], peers=peers, **config_kwargs
        ))
    return configs


async def start_cluster(configs: List[DaemonConfig]) -> List[SiteDaemon]:
    daemons = [SiteDaemon(config) for config in configs]
    for daemon in daemons:
        await daemon.start()
    return daemons


async def stop_cluster(daemons: List[SiteDaemon]) -> None:
    for daemon in daemons:
        await daemon.shutdown()


async def wait_until(predicate, timeout: float = 20.0,
                     interval: float = 0.05) -> bool:
    """Poll ``predicate()`` until true or the deadline passes."""
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


@pytest.fixture
def run():
    """Run a coroutine on a fresh event loop (no pytest-asyncio in the
    toolchain; a plain asyncio.run keeps the tests self-contained)."""
    def runner(coroutine):
        return asyncio.run(coroutine)

    return runner
