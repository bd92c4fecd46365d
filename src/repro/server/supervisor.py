"""Connection supervision: who dials whom, reconnect, failure detection.

**Dial direction.** Between any two daemons exactly one side dials:
the one with the *larger* site id calls the smaller. The rule is
arbitrary but total, so a fully-connected cluster forms without
duplicate sockets or dial storms, and every daemon knows statically
which peers it must pursue and which it merely awaits.

**Reconnect.** Each dialed peer gets a supervision loop: dial, serve
until the connection dies, back off, dial again. The backoff is the
shared :class:`repro.util.backoff.BackoffPolicy` (the same curve the
anti-entropy policy uses for declining responders) with deterministic
per-(site, peer) jitter from :func:`repro.util.rng.derive_rng` — a
hundred daemons restarting against one recovered peer spread their
dials instead of synchronizing into a thundering herd, yet any single
run replays identically from its seed. A connection that actually
established resets the failure count: its next loss retries at the
base delay, not wherever the curve had climbed.

**Failure detection.** A watchdog sweeps all live connections on the
heartbeat cadence: connections idle on the send side get a keepalive
ack queued; connections silent on the *receive* side past the idle
timeout are declared failed and closed — the dial loop (on whichever
side owns it) takes over from there. Detection is therefore purely
local and timer-based, as befits the asynchronous model: a silent
peer and a dead peer are indistinguishable, and both get the same
treatment.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List

from repro.core.disambiguator import SiteId
from repro.server.connection import PeerConnection
from repro.util.backoff import BackoffPolicy, jittered
from repro.util.rng import derive_rng

#: Reconnect schedule (milliseconds, like every repro backoff) and the
#: share of each delay its seeded jitter may add.
RECONNECT_BACKOFF = BackoffPolicy(base=100.0, factor=2.0, maximum=2000.0)
RECONNECT_JITTER = 0.5


class ConnectionSupervisor:
    """Owns the dial loops and the heartbeat/idle watchdog."""

    def __init__(self, daemon: "SiteDaemon") -> None:
        self.daemon = daemon
        self.config = daemon.config
        self._tasks: List[asyncio.Task] = []
        #: Consecutive dial failures per peer (status reporting).
        self.dial_failures: Dict[SiteId, int] = {}

    def dialed_peers(self) -> List[SiteId]:
        """The peers this daemon is responsible for calling."""
        return sorted(
            peer for peer in self.daemon.transport.peers
            if peer < self.daemon.config.site
        )

    def start(self) -> None:
        loop = asyncio.get_event_loop()
        for peer in self.dialed_peers():
            self._tasks.append(loop.create_task(self._dial_loop(peer)))
        self._tasks.append(loop.create_task(self._watchdog()))

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []

    # -- dialing ----------------------------------------------------------------------

    async def _dial_loop(self, peer: SiteId) -> None:
        host, port = self.daemon.transport.peers[peer]
        config = self.config
        rng = derive_rng(config.seed, "reconnect", config.site, peer)
        failures = 0
        while not self.daemon.closing:
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                failures += 1
                self.dial_failures[peer] = failures
                await asyncio.sleep(self._delay(failures, rng))
                continue
            connection = PeerConnection(self.daemon, reader, writer,
                                        expected_peer=peer)
            await connection.run()
            if self.daemon.closing:
                return
            # An established connection that later died restarts the
            # curve: one loss is one failure, not a continuation of
            # whatever streak preceded the success.
            failures = 1 if connection.established else failures + 1
            self.dial_failures[peer] = failures
            await asyncio.sleep(self._delay(failures, rng))

    def _delay(self, failures: int, rng) -> float:
        """Jittered backoff, converted from policy-ms to loop-seconds."""
        delay_ms = jittered(RECONNECT_BACKOFF.delay(failures),
                            RECONNECT_JITTER, rng)
        return delay_ms / 1000.0

    # -- heartbeats and idle detection ------------------------------------------------

    async def _watchdog(self) -> None:
        interval = self.config.heartbeat_interval
        while True:
            await asyncio.sleep(interval / 2.0)
            loop_now = asyncio.get_event_loop().time()
            for connection in list(self.daemon.connections.values()):
                if loop_now - connection.last_tx >= interval:
                    connection.send_heartbeat()
                if (loop_now - connection.last_rx
                        >= self.config.idle_timeout):
                    # Silent too long: presumed failed. Closing tears
                    # down both loops; the owning dialer redials.
                    asyncio.get_event_loop().create_task(
                        connection.close()
                    )
