"""One benchmark run: live site daemons over loopback TCP.

Every daemon is a real :class:`repro.server.daemon.SiteDaemon` in this
process's event loop, talking to its peers over one loopback TCP
connection per site pair. The run drives them from outside, through
the sites' public edit and sync calls, and observes them through each
site's registered network handler (wrapped so that the moment a remote
edit is applied is the moment it is seen), public counters and
``status()``.

A run is: set-up (repeated, median reported), an open-loop stream of
seeded edits, closed bursts, then rejoin cycles — a fresh durable
daemon joins (full state transfer), is killed (its store directory is
copied while it serves, which is the on-disk image a SIGKILL leaves),
misses ``k`` edits, restarts from the copy and catches up through an
explicit sync request. Correctness gates run throughout and at the end.
"""

from __future__ import annotations

import asyncio
import gc
import math
import random
import shutil
import sys
import time
import types
import weakref
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.path import ROOT
from repro.core.treedoc import Treedoc
from repro.errors import OverloadedError
from repro.replication.clock import VectorClock
from repro.replication.wire import (
    EnvelopeFrame,
    SyncResponse,
    decode_wire,
    peek_wire_kind,
)
from repro.server.admin import identity_digest
from repro.server.daemon import DaemonConfig, SiteDaemon

from perfbench import stats
from perfbench.tracing import (
    LAYERS,
    Tracer,
    attribute,
    layer_self_times,
    tail_shares,
)
from perfbench.workloads import (
    SITE_A,
    SITE_B,
    SITE_J,
    SITE_SEED,
    FULL_READ_EVERY,
    VIEWPORT,
    Cursors,
    Workload,
    base_text,
    replay_plain,
    steps,
)

HOST = "127.0.0.1"
#: Roster entry for a peer this daemon never dials (higher site ids
#: dial lower ones, so only the dialer needs the real port).
UNDIALED = (HOST, 0)
#: How long a phase may take to become fully visible before the edits
#: still missing count as failed.
SETTLE_SECONDS = 60.0
POLL_SECONDS = 0.002
#: Durable stores write every append and checkpoint as the product
#: does, but without fsync: on a shared virtual disk an fsync's latency
#: is the host's, and it swamped the code's own cost from run to run.
FSYNC = False
#: Live edits a joined daemon journals before it is killed (fewer than
#: the store's checkpoint cadence, so they stay in the WAL tail).
JOURNALED_EDITS = 20
#: End-to-end metrics the result line carries (the benchmark's bounded
#: set). The others are printed for people only: the rejoin timings
#: exist in one workload, and the other timings' medians moved by up
#: to 0.35 between two sets of runs of unchanged code on a shared
#: 2-vCPU VM (see README.md, "Metrics").
REPORTED = ("setup_s", "wire_bytes_per_edit", "state_bits_per_atom",
            "resident_bytes_per_atom")


class GateError(Exception):
    """A correctness gate failed."""


def build_base(workload: Workload, seed: int) -> bytes:
    """The seed site's document as one state-transfer frame.

    The base text is typed, flattened to canonical form, then the
    seeded history (if any) is applied on top, and cold regions are
    collapsed into array leaves (bitmap leaves where SDIS keeps
    tombstones) — a quiescent document as a site would load it.
    """
    doc = Treedoc(SITE_SEED, mode=workload.mode)
    text = base_text(workload, seed)
    for start in range(0, len(text), 200):
        doc.insert_text(len(doc), list(text[start:start + 200]))
    doc.note_revision()
    doc.flatten_local(ROOT)
    if workload.base_holes:
        for index in range(len(doc) - workload.base_holes, 0,
                           -workload.base_holes):
            doc.delete(index)
    history = steps(workload, seed, "history")
    cursors = Cursors()
    for _ in range(workload.history_edits):
        kind, index, arg = cursors.resolve(SITE_SEED, next(history), len(doc))
        if kind == "insert":
            doc.insert_text(index, list(arg))
        else:
            doc.delete_range(index, arg)
    for _ in range(3):
        doc.note_revision()
    doc.collapse_cold()
    frame = SyncResponse(SITE_SEED, VectorClock({SITE_SEED: 1}),
                         doc.capture_state(), ())
    return frame.to_wire()


def oracle_base(workload: Workload, seed: int) -> List[str]:
    """The base document replayed on a plain list (no Treedoc)."""
    atoms = list(base_text(workload, seed))
    if workload.base_holes:
        for index in range(len(atoms) - workload.base_holes, 0,
                           -workload.base_holes):
            del atoms[index]
    history = steps(workload, seed, "history")
    trace = [next(history) for _ in range(workload.history_edits)]
    return replay_plain(atoms, SITE_SEED, trace)


def resident_bytes(root: object) -> int:
    """Bytes reachable from ``root`` through ``gc.get_referents``
    (types, modules and functions excluded; each object once)."""
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType, weakref.ref)
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


@dataclass
class Measurements:
    setup_s: List[float] = field(default_factory=list)
    edit_ms: List[float] = field(default_factory=list)
    visible_ms: List[float] = field(default_factory=list)
    read_us: List[float] = field(default_factory=list)
    burst_seconds: List[float] = field(default_factory=list)
    join_s: List[float] = field(default_factory=list)
    restart_s: List[float] = field(default_factory=list)
    catchup_s: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    edits_attempted: int = 0
    refused: int = 0
    requests: int = 0
    unseen: int = 0
    stream_edits: int = 0
    stream_wire_bytes: int = 0
    stream_wal_bytes: int = 0
    replayed_records: int = 0
    #: Errors and sheds of daemons already shut down.
    retired: Dict[str, int] = field(default_factory=dict)


class Receiver:
    """Watches one stream daemon apply remote edits.

    Wraps the site's registered network handler: after each delivery,
    every pending edit the site's clock now covers is visible — its
    latency runs from when it was due — and the site serves one read
    (a viewport window, or every n-th time the full text)."""

    def __init__(self, run: "Run", daemon: SiteDaemon) -> None:
        self.run = run
        self.daemon = daemon
        self.site_id = daemon.config.site
        self.pending: Dict[int, Deque[Tuple[int, Optional[float]]]] = {}
        self.last_seen: Dict[int, float] = {}
        self.reads = 0
        self.rng = random.Random(
            f"{run.workload.name}/{run.seed}/reads{self.site_id}"
        )

    def expect(self, origin: int, sequence: int,
               due: Optional[float]) -> None:
        self.pending.setdefault(origin, deque()).append((sequence, due))

    @property
    def outstanding(self) -> int:
        return sum(len(queue) for queue in self.pending.values())

    def wrap(self, handler):
        def observed(src, payload):
            try:
                handler(src, payload)
            finally:
                self._after_delivery()
        return observed

    def _after_delivery(self) -> None:
        clock = self.daemon.site.broadcast.clock
        now = time.perf_counter()
        advanced = False
        for origin, queue in self.pending.items():
            covered = clock.get(origin)
            while queue and queue[0][0] <= covered:
                _, due = queue.popleft()
                if due is not None:
                    self.run.m.visible_ms.append((now - due) * 1000.0)
                self.last_seen[origin] = now
                advanced = True
        if advanced:
            self._read()

    def _read(self) -> None:
        workload = self.run.workload
        doc = self.daemon.site.doc
        tracer = self.run.tracer
        span = tracer.begin("core.read") if tracer.enabled else None
        started = time.perf_counter()
        self.reads += 1
        if self.reads % FULL_READ_EVERY == 0:
            doc.text()
        else:
            length = len(doc)
            width = min(VIEWPORT, length)
            if workload.viewport_at_cursor:
                centre = self.run.cursors.position.get(self.site_id, 0)
                start = max(0, min(centre - width // 2, length - width))
            else:
                start = self.rng.randint(0, length - width)
            for index in range(start, start + width):
                doc.atom_at(index)
        self.run.m.read_us.append((time.perf_counter() - started) * 1e6)
        if span is not None:
            tracer.end(span)


class Run:
    """One seeded run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: Path, tracer: Optional[Tracer] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer or Tracer()
        self.traced = tracer is not None
        self.m = Measurements()
        self.cursors = Cursors()
        self.streams = {site: steps(workload, seed, f"writer{site}")
                        for site in workload.writers}
        self.applied: Dict[int, list] = {site: []
                                         for site in workload.writers}
        self.daemons: Dict[int, SiteDaemon] = {}
        self.receivers: Dict[int, Receiver] = {}
        self.counters: Dict[str, float] = {}
        self.window: Tuple[float, float] = (0.0, 0.0)
        #: Trace-side observations (filled only in traced runs).
        self.inbound_wait_ms: List[float] = []
        self.inbound_depth_max = 0
        self.buffered_max = 0
        self.sync_sizes: List[int] = []
        self.deliveries = 0

    # -- daemons ----------------------------------------------------------------------

    def _daemon(self, site: int, peers, store: Optional[Path],
                **overrides) -> SiteDaemon:
        daemon = SiteDaemon(DaemonConfig(
            site=site, host=HOST, peers=peers, mode=self.workload.mode,
            store_path=None if store is None else str(store),
            seed=self.seed, **overrides,
        ))
        if daemon.store is not None:
            daemon.store.fsync = FSYNC
        return daemon

    def _instrument(self, daemon: SiteDaemon, observe: bool) -> None:
        """Install the receiver (stream daemons) and, in traced runs,
        the delivery span and admission clock."""
        site = daemon.site
        handler = daemon.transport.handler
        if self.traced:
            admitted: Deque[float] = deque()
            handler = self._traced_handler(daemon, handler, admitted)
            self._trace_admission(daemon, admitted)
        if observe:
            receiver = Receiver(self, daemon)
            self.receivers[daemon.config.site] = receiver
            handler = receiver.wrap(handler)
        daemon.transport.register(site.site, handler)

    def _traced_handler(self, daemon: SiteDaemon, handler,
                        admitted: Deque[float]):
        tracer = self.tracer
        site = daemon.site

        def delivered(src, payload):
            if admitted:
                waited = time.perf_counter() - admitted.popleft()
                if tracer.enabled:
                    self.inbound_wait_ms.append(waited * 1000.0)
            if not tracer.enabled:
                return handler(src, payload)
            kind = peek_wire_kind(payload)
            full, deltas = site.sync_responses_sent, site.sync_deltas_sent
            span = tracer.begin("replication.deliver", kind)
            try:
                return handler(src, payload)
            finally:
                tracer.end(span)
                self.deliveries += 1
                if kind == "sync_request":
                    if site.sync_deltas_sent > deltas:
                        tracer.set_tag(span, "sync_request/delta")
                    elif site.sync_responses_sent > full:
                        tracer.set_tag(span, "sync_request/full")
                elif kind in ("sync_response", "sync_delta"):
                    self.sync_sizes.append(len(payload))
                self.buffered_max = max(self.buffered_max,
                                        site.broadcast.buffered)
        return delivered

    def _trace_admission(self, daemon: SiteDaemon,
                         admitted: Deque[float]) -> None:
        """Time each admitted frame from the admission gate until its
        delivery starts (FIFO: one apply queue per daemon)."""
        original = daemon.admit

        async def admit(peer, payload):
            shed, declined = daemon.shed_inbound, daemon.declined_syncs
            await original(peer, payload)
            if (daemon.shed_inbound == shed
                    and daemon.declined_syncs == declined
                    and not daemon.closing):
                admitted.append(time.perf_counter())
                if self.tracer.enabled:
                    self.inbound_depth_max = max(self.inbound_depth_max,
                                                 len(admitted))

        daemon.admit = admit

    async def _start_pair(self, rep: int) -> None:
        frame = build_base(self.workload, self.seed)
        root = self.workdir / f"setup{rep}"
        durable = self.workload.durable_pair
        # The rejoin slot is on the roster only where rejoin cycles run;
        # elsewhere frames queued for it would pile up unsent.
        slot = {SITE_J: UNDIALED} if self.workload.rejoin_reps else {}
        a = self._daemon(SITE_A, {SITE_B: UNDIALED, **slot},
                         root / "a" if durable else None)
        a.site.apply_state_transfer(decode_wire(frame))
        self._instrument(a, observe=True)
        await a.start()
        b = self._daemon(SITE_B, {SITE_A: (HOST, a.port), **slot},
                         root / "b" if durable else None)
        b.site.apply_state_transfer(decode_wire(frame))
        self._instrument(b, observe=True)
        await b.start()
        self.daemons = {SITE_A: a, SITE_B: b}
        await self.wait(
            lambda: SITE_B in a.transport.connected
            and SITE_A in b.transport.connected,
            "the stream pair to connect",
        )

    async def _stop(self, daemon: SiteDaemon) -> None:
        await daemon.shutdown()
        for name, value in self._error_counts(daemon).items():
            self.m.retired[name] = self.m.retired.get(name, 0) + value

    @staticmethod
    def _error_counts(daemon: SiteDaemon) -> Dict[str, int]:
        return {
            "shed": daemon.shed_inbound,
            "declined_syncs": daemon.declined_syncs,
            "stream_resyncs": daemon.stream_resyncs,
            "decode_errors": daemon.decode_errors,
            "apply_errors": daemon.apply_errors,
        }

    async def wait(self, predicate, what: str,
                   timeout: float = SETTLE_SECONDS) -> None:
        deadline = time.perf_counter() + timeout
        while not predicate():
            if time.perf_counter() > deadline:
                raise GateError(f"timed out waiting for {what}")
            await asyncio.sleep(POLL_SECONDS)

    # -- phases -----------------------------------------------------------------------

    async def setup(self) -> None:
        for rep in range(self.workload.setup_reps):
            for daemon in self.daemons.values():
                await self._stop(daemon)
            self.receivers = {}
            self._collect_garbage()
            started = time.perf_counter()
            await self._start_pair(rep)
            self.m.setup_s.append(time.perf_counter() - started)
        # Only the kept pair's errors count.
        self.m.retired = {}
        self._collect_garbage()

    @staticmethod
    def _collect_garbage() -> None:
        """Reclaim what the benchmark itself discarded (earlier set-ups,
        stopped rejoin daemons) outside the timed sections, so a full
        collection of it never lands inside a measured operation."""
        gc.collect()

    def edit(self, writer: int, due: Optional[float]) -> None:
        """One local edit call at ``writer`` (admission-checked)."""
        daemon = self.daemons[writer]
        step = next(self.streams[writer])
        self.m.edits_attempted += 1
        try:
            daemon.check_admission()
        except OverloadedError:
            # A refusal misses every latency limit.
            self.m.refused += 1
            self.m.edit_ms.append(math.inf)
            if due is not None:
                self.m.visible_ms.extend(
                    [math.inf] * (len(self.daemons) - 1))
            return
        site = daemon.site
        kind, index, arg = self.cursors.resolve(writer, step, len(site))
        started = time.perf_counter()
        if kind == "insert":
            site.insert_text(index, list(arg))
        else:
            site.delete_range(index, arg)
        self.m.edit_ms.append((time.perf_counter() - started) * 1000.0)
        self.applied[writer].append(step)
        sequence = site.broadcast.clock.get(writer)
        for peer, receiver in self.receivers.items():
            if peer != writer:
                receiver.expect(writer, sequence, due)

    async def open_loop(self, count: int) -> None:
        """``count`` edits on a fixed schedule, writers alternating;
        each is timed from when it was due, however late it went."""
        writers = self.workload.writers
        interval = 1.0 / (self.workload.rate * len(writers))
        started = time.perf_counter()
        for index in range(count):
            due = started + index * interval
            delay = due - time.perf_counter()
            await asyncio.sleep(max(0.0, delay))
            self.m.late_ms.append(
                max(0.0, time.perf_counter() - due) * 1000.0)
            self.edit(writers[index % len(writers)], due)
        await self.settle()

    async def settle(self) -> None:
        """Wait until every edit made so far is visible at every peer;
        what is still missing at the deadline counts as failed."""
        try:
            await self.wait(
                lambda: all(r.outstanding == 0
                            for r in self.receivers.values()),
                "edits to become visible",
            )
        except GateError:
            self.m.unseen += sum(r.outstanding
                                 for r in self.receivers.values())
            raise

    def _stream_bytes(self) -> Tuple[int, List[object]]:
        """Bytes received so far on each writer-to-peer connection."""
        total = 0
        connections = []
        for writer in self.workload.writers:
            for peer in self.daemons:
                if peer == writer:
                    continue
                connection = self.daemons[peer].connections[writer]
                connections.append(connection)
                total += connection.frames.bytes_fed
        return total, connections

    def _wal_bytes(self) -> int:
        return sum(d.store.bytes_appended for d in self.daemons.values()
                   if d.store is not None)

    async def stream(self) -> None:
        count = self.workload.stream_edits(self.seconds)
        bytes_before, connections = self._stream_bytes()
        wal_before = self._wal_bytes()
        await self.open_loop(count)
        bytes_after, connections_after = self._stream_bytes()
        if any(a is not b for a, b in zip(connections, connections_after)):
            raise GateError("a stream connection was re-established "
                            "mid-phase")
        self.m.stream_edits = count
        self.m.stream_wire_bytes = bytes_after - bytes_before
        self.m.stream_wal_bytes = self._wal_bytes() - wal_before

    async def bursts(self) -> None:
        writer = self.workload.writers[0]
        receiver = self.receivers[SITE_B if writer == SITE_A else SITE_A]
        for _ in range(self.workload.bursts):
            started = time.perf_counter()
            for _ in range(self.workload.burst_size):
                self.edit(writer, None)
                await asyncio.sleep(0)
            await self.settle()
            self.m.burst_seconds.append(receiver.last_seen[writer] - started)

    def _clear_rejoin_slot(self) -> None:
        """Frames parked for the absent rejoin site die with it (a
        killed peer's socket loses them too)."""
        for daemon in self.daemons.values():
            daemon.transport.queues[SITE_J].clear()

    def _rejoin_daemon(self, store: Path) -> SiteDaemon:
        a, b = self.daemons[SITE_A], self.daemons[SITE_B]
        # The benchmark requests every rejoin sync itself, so the
        # frontier-lag detector's timer never sits inside a number.
        return self._daemon(
            SITE_J, {SITE_A: (HOST, a.port), SITE_B: (HOST, b.port)}, store,
            lag_sync_after=3600.0,
        )

    async def _request_and_wait(self, daemon: SiteDaemon, what: str) -> None:
        target = self.daemons[SITE_A].site.broadcast.clock.copy()
        self.m.requests += 1
        if not daemon.site.request_sync(SITE_A):
            raise GateError(f"{what}: no sync request went out")
        await self.wait(
            lambda: daemon.site.broadcast.clock.dominates(target), what,
        )

    def _check_rejoined(self, daemon: SiteDaemon, what: str) -> None:
        """The rejoined site holds its source's text under the same
        PosIDs (checked outside the timed sections)."""
        source = self.daemons[SITE_A].site
        if daemon.site.text() != source.text():
            raise GateError(f"{what}: rejoined text differs from its source")
        if identity_digest(daemon.site) != identity_digest(source):
            raise GateError(f"{what}: rejoined PosIDs differ from its source")

    async def rejoin(self, rep: int) -> None:
        store = self.workdir / f"rejoin{rep}"
        crash = self.workdir / f"rejoin{rep}-killed"
        # A fresh durable daemon joins through a full state transfer.
        self._clear_rejoin_slot()
        started = time.perf_counter()
        joiner = self._rejoin_daemon(store)
        self._instrument(joiner, observe=False)
        await joiner.start()
        await self.wait(lambda: SITE_A in joiner.transport.connected,
                        "the joiner to connect")
        await self._request_and_wait(joiner, "join")
        self.m.join_s.append(time.perf_counter() - started)
        self._check_rejoined(joiner, "join")
        # It journals a few live edits, so restart replays a WAL tail...
        await self.open_loop(JOURNALED_EDITS)
        source = self.daemons[SITE_A].site.broadcast.clock.copy()
        await self.wait(lambda: joiner.site.broadcast.clock.dominates(source),
                        "the joiner to receive the live edits")
        # ...and is killed while serving: the store as it is on disk.
        shutil.copytree(store, crash)
        frontier = joiner.site.broadcast.clock.copy()
        await self._stop(joiner)
        shutil.rmtree(store)
        self._collect_garbage()
        # It misses k edits...
        await self.open_loop(self.workload.rejoin_k)
        self._clear_rejoin_slot()
        # ...restarts from the killed image and serves again...
        started = time.perf_counter()
        restarted = self._rejoin_daemon(crash)
        self._instrument(restarted, observe=False)
        await restarted.start()
        await self.wait(
            lambda: SITE_A in restarted.transport.connected
            and restarted.site.broadcast.clock.dominates(frontier),
            "the restarted daemon to serve",
        )
        self.m.restart_s.append(time.perf_counter() - started)
        self.m.replayed_records += restarted.site.recovered_events
        # ...and catches up on what it missed.
        started = time.perf_counter()
        await self._request_and_wait(restarted, "catch-up")
        self.m.catchup_s.append(time.perf_counter() - started)
        self._check_rejoined(restarted, "catch-up")
        await self._stop(restarted)
        shutil.rmtree(crash)
        self._collect_garbage()

    # -- the whole run ----------------------------------------------------------------

    def _tree_counters(self) -> Dict[str, int]:
        totals = {"explodes": 0, "partial_explodes": 0,
                  "cache_drops": 0, "cache_splices": 0}
        for daemon in self.daemons.values():
            tree = daemon.site.doc.tree
            for name in totals:
                totals[name] += getattr(tree, name)
        return totals

    async def execute(self) -> None:
        await self.setup()
        before = self._tree_counters()
        self.tracer.enabled = self.traced
        started = time.perf_counter()
        await self.stream()
        await self.bursts()
        for rep in range(self.workload.rejoin_reps):
            await self.rejoin(rep)
        await self.settle()
        self.window = (started, time.perf_counter())
        self.tracer.enabled = False
        after = self._tree_counters()
        self.counters = {name: after[name] - before[name] for name in after}
        await self._finish()

    async def _finish(self) -> None:
        a, b = self.daemons[SITE_A], self.daemons[SITE_B]
        latencies = [x for d in (a, b) for x in d.apply_latencies]
        self.counters["apply_ms_p50"] = stats.percentile(latencies, 0.5)
        self.counters["apply_ms_p99"] = stats.percentile(latencies, 0.99)
        errors = dict(self.m.retired)
        for daemon in (a, b):
            for name, value in self._error_counts(daemon).items():
                errors[name] = errors.get(name, 0) + value
        errors["shed"] += sum(
            daemon.transport.queues[peer].shed
            for daemon in (a, b) for peer in (SITE_A, SITE_B)
            if peer in daemon.transport.queues
        )
        self.counters.update(errors)
        # Sizes, outside every timed section.
        state = a.site.make_state_transfer().to_wire()
        self.counters["state_bits_per_atom"] = len(state) * 8 / len(a.site)
        self.counters["resident_bytes_per_atom"] = (
            resident_bytes(b.site.doc.tree) / len(b.site))
        self._gate(a, b)

    def _gate(self, a: SiteDaemon, b: SiteDaemon) -> None:
        if a.site.text() != b.site.text():
            raise GateError("the stream pair ended with different text")
        if identity_digest(a.site) != identity_digest(b.site):
            raise GateError("the stream pair ended with different PosIDs")
        if len(self.workload.writers) == 1:
            writer = self.workload.writers[0]
            expected = replay_plain(oracle_base(self.workload, self.seed),
                                    writer, self.applied[writer])
            if a.site.atoms() != expected:
                raise GateError("final text differs from the plain-list "
                                "replay of the trace")

    async def close(self) -> None:
        for daemon in self.daemons.values():
            if not daemon.closing:
                await daemon.shutdown()

    @property
    def failed(self) -> int:
        errors = sum(self.counters.get(name, 0) for name in
                     ("shed", "declined_syncs", "stream_resyncs",
                      "decode_errors", "apply_errors"))
        return self.m.refused + self.m.unseen + int(errors)

    @property
    def attempted(self) -> int:
        return self.m.edits_attempted + self.m.requests

    # -- metrics ----------------------------------------------------------------------

    def end_to_end(self) -> Dict[str, Tuple[float, str, int]]:
        """name -> (value, unit, sample count), for every metric this
        run has samples for: a workload without rejoin cycles reports
        no rejoin timings, and a p99 over fewer than
        ``stats.min_samples(0.99)`` samples is left out."""
        m = self.m
        metrics: Dict[str, Tuple[float, str, int]] = {}

        def timed(name, samples, unit):
            metrics[f"{name}_p50"] = (stats.median(samples), unit,
                                      len(samples))
            if len(samples) >= stats.min_samples(0.99):
                metrics[f"{name}_p99"] = (stats.percentile(samples, 0.99),
                                          unit, len(samples))

        def median(name, samples, unit):
            if samples:
                metrics[name] = (stats.median(samples), unit, len(samples))

        median("setup_s", m.setup_s, "s")
        timed("edit_ms", m.edit_ms, "ms")
        timed("visible_ms", m.visible_ms, "ms")
        # All bursts together: edits over their summed durations.
        metrics["burst_eps"] = (
            self.workload.burst_size * len(m.burst_seconds)
            / sum(m.burst_seconds), "edits/s", len(m.burst_seconds))
        timed("read_us", m.read_us, "us")
        median("join_s", m.join_s, "s")
        median("catchup_s", m.catchup_s, "s")
        median("restart_s", m.restart_s, "s")
        metrics["wire_bytes_per_edit"] = (
            m.stream_wire_bytes / m.stream_edits, "B", m.stream_edits)
        metrics["state_bits_per_atom"] = (
            self.counters["state_bits_per_atom"], "bits", 1)
        metrics["resident_bytes_per_atom"] = (
            self.counters["resident_bytes_per_atom"], "B", 1)
        return metrics

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        """name -> (value, unit), from the spans and counters of the
        traced window."""
        t = self.tracer
        durations: Dict[str, List[float]] = {}
        for name, start, end in zip(t.names, t.starts, t.ends):
            durations.setdefault(name, []).append(end - start)
        own, unattributed = attribute(t.starts, t.ends, t.parents,
                                      self.window)
        by_tag: Dict[str, List[float]] = {}
        deliver_self: List[float] = []
        for index, name in enumerate(t.names):
            if name == "replication.deliver":
                deliver_self.append(own[index])
                by_tag.setdefault(t.tags[index] or "", []).append(
                    t.ends[index] - t.starts[index])

        def med(name, scale):
            return stats.median(durations.get(name, [])) * scale

        def pct(samples, fraction, scale):
            return (stats.percentile(samples, fraction) * scale
                    if samples else 0.0)

        c = self.counters
        apply_spans = durations.get("core.apply", [])
        sync_apply = by_tag.get("sync_response", []) + by_tag.get(
            "sync_delta", [])
        full = len(by_tag.get("sync_request/full", []))
        delta = len(by_tag.get("sync_request/delta", []))
        splices, drops = c["cache_splices"], c["cache_drops"]
        layers = layer_self_times(t.names, own)
        wall = self.window[1] - self.window[0]
        if abs(sum(layers.values()) + unattributed - wall) > 1e-6:
            raise GateError("layer self times do not sum to the wall time")
        metrics: Dict[str, Tuple[float, str]] = {
            "core.mint_us": (med("core.mint", 1e6), "us"),
            "core.apply_us_p50": (pct(apply_spans, 0.5, 1e6), "us"),
            "core.apply_us_p99": (pct(apply_spans, 0.99, 1e6), "us"),
            "core.read_us": (med("core.read", 1e6), "us"),
            "core.cache_drops": (drops, "count"),
            "core.cache_splices": (splices, "count"),
            "core.splice_ratio": (
                splices / (splices + drops) if splices + drops else 0.0,
                "ratio"),
            "core.explodes": (c["explodes"], "count"),
            "core.partial_explodes": (c["partial_explodes"], "count"),
            "core.capture_state_ms": (med("core.capture_state", 1e3), "ms"),
            "core.load_state_ms": (med("core.load_state", 1e3), "ms"),
            "codec.encode_batch_us": (med("codec.encode_batch", 1e6), "us"),
            "codec.decode_batch_us": (med("codec.decode_batch", 1e6), "us"),
            "codec.encode_state_ms": (med("codec.encode_state", 1e3), "ms"),
            "codec.decode_state_ms": (med("codec.decode_state", 1e3), "ms"),
            "codec.batch_bytes": (
                stats.median(t.sizes.get("codec.batch", [])), "B"),
            "codec.state_bytes": (
                stats.median(t.sizes.get("codec.state", [])), "B"),
            "wire.encode_us": (med("wire.encode", 1e6), "us"),
            "wire.decode_us": (med("wire.decode", 1e6), "us"),
            "wire.decodes_per_frame": (
                t.calls.get("wire.decode", 0) / max(1, self.deliveries),
                "ratio"),
            "wire.frame_bytes": (
                stats.median(t.sizes.get("wire.frame", [])), "B"),
            "replication.deliver_us": (
                stats.median(deliver_self) * 1e6, "us"),
            "replication.causal_buffered_max": (self.buffered_max, "count"),
            "replication.sync_full_ms": (
                stats.median(by_tag.get("sync_request/full", [])) * 1e3,
                "ms"),
            "replication.sync_delta_ms": (
                stats.median(by_tag.get("sync_request/delta", [])) * 1e3,
                "ms"),
            "replication.sync_apply_ms": (
                stats.median(sync_apply) * 1e3, "ms"),
            "replication.sync_bytes": (
                stats.median(self.sync_sizes), "B"),
            "replication.delta_share": (
                delta / (delta + full) if delta + full else 0.0, "ratio"),
            "replication.checkpoint_ms": (
                med("replication.checkpoint", 1e3), "ms"),
            "storage.append_us": (med("storage.append", 1e6), "us"),
            "storage.checkpoint_ms": (med("storage.checkpoint", 1e3), "ms"),
            "storage.checkpoints": (
                t.calls.get("storage.checkpoint", 0), "count"),
            "storage.recover_ms": (med("storage.recover", 1e3), "ms"),
            "storage.replayed_records": (self.m.replayed_records, "count"),
            "storage.wal_bytes_per_edit": (
                self.m.stream_wal_bytes / self.m.stream_edits, "B"),
            "server.segment_encode_us": (
                med("server.segment_encode", 1e6), "us"),
            "server.deframe_us": (med("server.deframe", 1e6), "us"),
            "server.inbound_wait_ms": (
                stats.median(self.inbound_wait_ms), "ms"),
            "server.inbound_depth_max": (self.inbound_depth_max, "count"),
            "server.apply_ms_p50": (c["apply_ms_p50"], "ms"),
            "server.apply_ms_p99": (c["apply_ms_p99"], "ms"),
            "server.shed": (c["shed"], "count"),
            "server.declined_syncs": (c["declined_syncs"], "count"),
            "server.stream_resyncs": (c["stream_resyncs"], "count"),
            "server.decode_errors": (c["decode_errors"], "count"),
            "server.apply_errors": (c["apply_errors"], "count"),
            "generator.late_ms_p50": (stats.median(self.m.late_ms), "ms"),
            "generator.late_ms_max": (max(self.m.late_ms, default=0.0), "ms"),
            "failed_frac": (self.failed / max(1, self.attempted), "ratio"),
            "trace.spans": (len(t.names), "count"),
            "trace.wall_s": (wall, "s"),
            "unattributed_s": (unattributed, "s"),
        }
        # The slowest 1% of local edit calls: which layers their time
        # went to (a checkpoint behind an edit lands here).
        tail = tail_shares(t.names, t.starts, t.ends, t.parents, own,
                           "replication.edit")
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
            metrics[f"tail.{layer}_share"] = (tail[layer], "ratio")
        return metrics

    def install_trace_hooks(self) -> None:
        """Wrap the layers' entry points (traced runs only)."""
        tracer = self.tracer

        def key_envelope(args, frame):
            if isinstance(frame, EnvelopeFrame):
                tracer.set_key(frame.origin, frame.sequence)

        def size_envelope(args, data):
            if peek_wire_kind(data) == "envelope":
                tracer.note_size("wire.frame", len(data))

        def key_edit(args, result):
            site = args[0]
            tracer.set_key(site.site, site.broadcast.clock.get(site.site))

        tracer.install(hooks={
            "repro.replication.wire:decode_wire": key_envelope,
            "repro.replication.wire:encode_wire": size_envelope,
            "repro.core.encoding:encode_batch":
                lambda args, result: tracer.note_size(
                    "codec.batch", len(result[0])),
            "repro.core.encoding:encode_state":
                lambda args, result: tracer.note_size(
                    "codec.state", result.frame_bytes),
            "repro.replication.site:ReplicaSite.insert_text": key_edit,
            "repro.replication.site:ReplicaSite.delete_range": key_edit,
        })
