"""Multi-site simulation harness.

``Cluster`` assembles N replica sites over one simulated network and
offers the operations the integration tests and examples need: drive
edits at any site, run the network to quiescence, tick the anti-entropy
policy, and check convergence (the CRDT property: same operations, any
causal order, same state). The network carries only wire-frame bytes,
so ``cluster.network.bytes_delivered`` / ``link_bytes`` are measured
traffic, not estimates.

Churn (:meth:`Cluster.run_churn`) is scripted, not random: a schedule
of :class:`ChurnEvent` actions — join, graceful leave, crash, durable
recover, partition, heal — interleaves with seeded background edits
and *partial* network pumping, so membership changes land while
messages are genuinely in flight. :meth:`Cluster.converge` then heals,
settles and ticks anti-entropy (advancing simulated time when the
policies' age and backoff thresholds have not expired yet) until every
surviving site agrees.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.disambiguator import SiteId
from repro.errors import ReplicationError
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication.site import ReplicaSite
from repro.replication.sync import AntiEntropyPolicy
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class ChurnEvent:
    """One scripted membership or fault action, fired at ``step``.

    ``action`` is one of:

    - ``"join"`` — a brand-new site enters (fresh id unless ``site``
      names one); it bootstraps via anti-entropy.
    - ``"leave"`` — graceful permanent departure of ``site``: the
      survivors forget it (its last ack stops pinning the stable
      frontier) and it never returns under that id.
    - ``"crash"`` — process death of ``site`` mid-flight: no flush, no
      goodbye. A durable site's store is retained for a later recover.
    - ``"recover"`` — resurrect a crashed *durable* ``site`` from its
      retained store (checkpoint + WAL tail). Volatile sites cannot
      recover — a restarted volatile process would re-mint identifiers
      it already used; script a ``join`` instead.
    - ``"partition"`` — split the network into ``groups`` (sites in no
      group form the implicit rest).
    - ``"heal"`` — remove the partition.
    """

    step: int
    action: str
    site: Optional[SiteId] = None
    groups: Tuple[Tuple[SiteId, ...], ...] = ()


class Cluster:
    """N cooperating replica sites on a simulated network."""

    def __init__(
        self,
        n_sites: int,
        mode: str = "udis",
        balanced: bool = True,
        config: NetworkConfig | None = None,
        seed: int = 0,
        first_site: SiteId = 1,
        tombstone_gc: bool = False,
        policy: Optional[AntiEntropyPolicy] = None,
    ) -> None:
        if n_sites < 1:
            raise ReplicationError("a cluster needs at least one site")
        self.network = SimulatedNetwork(config, seed=seed)
        self.mode = mode
        self.balanced = balanced
        self.tombstone_gc = tombstone_gc
        self.policy = policy
        self.sites: Dict[SiteId, ReplicaSite] = {}
        #: High-water mark of ids ever used: default-id joins must not
        #: collide with a crashed (recoverable) or departed site's id.
        self._next_site_id: SiteId = first_site
        for offset in range(n_sites):
            self.add_site(first_site + offset)

    def add_site(self, site_id: Optional[SiteId] = None,
                 store: Optional["DurableStore"] = None) -> ReplicaSite:
        """Register one more site (default id: max + 1) — a late
        joiner. It starts empty and catches up like any lagging
        replica: by replay for what still reaches it, and by the
        anti-entropy exchange (see :meth:`anti_entropy`) for the
        history sent before it existed.

        With ``store`` the site is durable — and if the store already
        holds history (e.g. from a site removed by :meth:`crash_site`),
        the new site *resurrects* from it: checkpoint + WAL tail
        replay, then the ordinary catch-up paths close whatever gap
        accumulated while it was down."""
        if site_id is None:
            site_id = self._next_site_id
        if site_id in self.sites:
            raise ReplicationError(f"site {site_id} already in the cluster")
        self._next_site_id = max(self._next_site_id, site_id + 1)
        self.sites[site_id] = ReplicaSite(
            site_id, self.network, mode=self.mode, balanced=self.balanced,
            tombstone_gc=self.tombstone_gc, policy=self.policy, store=store,
        )
        return self.sites[site_id]

    def crash_site(self, site_id: SiteId) -> Optional["DurableStore"]:
        """Kill a site: it vanishes from the cluster mid-flight (no
        flush, no goodbye), exactly like a process death. Returns its
        durable store (None for a volatile site) for a later
        :meth:`add_site` resurrection."""
        site = self.sites.pop(site_id, None)
        if site is None:
            raise ReplicationError(f"site {site_id} not in the cluster")
        return site.crash()

    def leave_site(self, site_id: SiteId) -> None:
        """Graceful *permanent* departure: the site detaches and every
        survivor forgets it, so its last acknowledgement stops pinning
        the stable frontier and peer rotation drops it. The id must
        never rejoin (a returning participant is a ``join`` with a
        fresh id, or a durable ``recover`` after a *crash*)."""
        site = self.sites.pop(site_id, None)
        if site is None:
            raise ReplicationError(f"site {site_id} not in the cluster")
        self.network.disconnect(site_id)
        for survivor in self.sites.values():
            survivor.forget_peer(site_id)

    def __getitem__(self, site: SiteId) -> ReplicaSite:
        return self.sites[site]

    def __iter__(self):
        return iter(self.sites.values())

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def site_ids(self) -> List[SiteId]:
        return sorted(self.sites)

    # -- simulation control ---------------------------------------------------------

    def settle(self, max_events: int = 1_000_000) -> int:
        """Run the network until no undelivered messages remain."""
        return self.network.run(max_events)

    def anti_entropy(self, max_rounds: int = 8,
                     max_events: int = 1_000_000) -> int:
        """Tick the anti-entropy policy until no site wants a snapshot.

        Each round settles the network, then lets every site consult
        its :class:`repro.replication.sync.AntiEntropyPolicy`; sites
        with a persistent causal gap send ``SyncRequest`` frames, the
        next settle carries the responses. Returns the number of
        requests issued. Sites that have heard nothing (no buffered
        envelopes) have no gap to detect — a joiner that must catch up
        from silence calls ``site.request_sync(peer)`` explicitly.

        A quiesced simulation has no event to pull time forward, so
        when gaps persist but nothing fired (age thresholds, jittered
        intervals or backoffs still running), the round *advances
        simulated time* past the largest policy threshold instead of
        giving up — that is what lets declined and backed-off sites
        rotate to another peer within one call.
        """
        requests = 0
        for _ in range(max_rounds):
            self.settle(max_events)
            fired = sum(
                1 for site in self.sites.values() if site.maybe_request_sync()
            )
            if not fired:
                if not self.has_gaps():
                    break
                self.network.advance(self._idle_advance())
                continue
            requests += fired
        self.settle(max_events)
        return requests

    def has_gaps(self) -> bool:
        """Is any site parked behind an unmet causal gap?"""
        return any(site.broadcast.blocked_since is not None
                   for site in self.sites.values())

    def _idle_advance(self) -> float:
        """Simulated ms that guarantee every site's age trigger and
        request-interval gate (jitter included) can expire."""
        step = 1.0
        for site in self.sites.values():
            p = site.policy
            step = max(step, max(p.max_gap_age, p.min_request_interval)
                       * (1.0 + p.jitter))
        return step + 1.0

    def converge(self, max_cycles: int = 20,
                 max_events: int = 2_000_000) -> int:
        """Heal, then settle + anti-entropy until every site agrees
        (or the cycle budget runs out — :meth:`assert_converged` will
        then name the divergence). Returns total sync requests issued.
        The loop form matters under churn: one anti-entropy pass can
        close a gap whose *responder* was itself still catching up."""
        self.heal()
        requests = 0
        for _ in range(max_cycles):
            self.settle(max_events)
            if not self.has_gaps() and not self.network.pending \
                    and self.is_converged():
                break
            requests += self.anti_entropy(max_events=max_events)
        self.settle(max_events)
        return requests

    def partition(self, *groups) -> None:
        """Partition the network (see :meth:`SimulatedNetwork.partition`)."""
        self.network.partition(*groups)

    def heal(self) -> None:
        """Heal the partition and release held messages."""
        self.network.heal()

    @contextmanager
    def partitioned(self, *groups):
        """Partition for the duration of a ``with`` block, healing on
        exit **including on exception** — a test that fails inside the
        block must not leak a split network into its own teardown
        assertions (or, under soak loops, into the next round). Yields
        the cluster so the block can keep a short name:

            with cluster.partitioned({1, 2}, {3}):
                cluster[1].insert(0, "x")
                cluster.settle()

        Healing releases the held messages but does not settle; the
        caller decides when (and whether) to pump them.
        """
        self.partition(*groups)
        try:
            yield self
        finally:
            self.heal()

    # -- scripted churn ---------------------------------------------------------------

    def run_churn(
        self,
        schedule: Iterable[ChurnEvent],
        steps: Optional[int] = None,
        edits_per_step: int = 2,
        pump: int = 200,
        seed: int = 0,
        alphabet: Sequence[object] = tuple("abcdefghijklmnop"),
    ) -> Dict[str, int]:
        """Drive the cluster through a scripted churn schedule.

        Each step fires the schedule's actions for that step, makes up
        to ``edits_per_step`` seeded random edits at random *alive*
        sites, lets every site's anti-entropy policy tick once, then
        pumps at most ``pump`` network events — deliberately **not** a
        full settle, so the next step's crashes and partitions land
        while messages are in flight. Crashed durable stores are
        retained and matched to later ``recover`` events by site id.

        The call leaves the cluster dirty (undelivered traffic, open
        gaps) by design: follow with :meth:`converge` and
        :meth:`assert_converged`. Returns counters for the report
        (steps run, actions applied, edits made, sync requests fired).
        """
        events = sorted(schedule, key=lambda e: e.step)
        if steps is None:
            steps = events[-1].step + 1 if events else 0
        rng = derive_rng(seed, "cluster-churn")
        stores: Dict[SiteId, "DurableStore"] = {}
        applied = edits = requests = 0
        queue = list(events)
        for step in range(steps):
            while queue and queue[0].step <= step:
                self._apply_churn_event(queue.pop(0), stores)
                applied += 1
            for _ in range(edits_per_step):
                if not self.sites:
                    break
                site = self.sites[rng.choice(self.site_ids)]
                if len(site) > 1 and rng.random() < 0.35:
                    site.delete(rng.randrange(len(site)))
                else:
                    site.insert(rng.randint(0, len(site)),
                                f"c{site.site}s{step}")
                edits += 1
            requests += sum(
                1 for site in self.sites.values()
                if site.maybe_request_sync()
            )
            pumped = False
            for _ in range(pump):
                if not self.network.step():
                    break
                pumped = True
            if not pumped:
                # Quiesced mid-churn: advance time so age- and
                # backoff-gated policies can make progress next step.
                self.network.advance(self._idle_advance())
        return {"steps": steps, "actions": applied,
                "edits": edits, "requests": requests}

    def _apply_churn_event(self, event: ChurnEvent,
                           stores: Dict[SiteId, "DurableStore"]) -> None:
        if event.action == "join":
            self.add_site(event.site)
        elif event.action == "leave":
            self.leave_site(event.site)
        elif event.action == "crash":
            stores[event.site] = self.crash_site(event.site)
        elif event.action == "recover":
            store = stores.pop(event.site, None)
            if store is None:
                raise ReplicationError(
                    f"site {event.site} cannot recover: no durable store "
                    "was retained from a crash (volatile sites rejoin as "
                    "fresh ids — script a 'join')"
                )
            self.add_site(event.site, store=store)
        elif event.action == "partition":
            self.partition(*(set(group) for group in event.groups))
        elif event.action == "heal":
            self.heal()
        else:
            raise ReplicationError(
                f"unknown churn action {event.action!r}"
            )

    def wire_bytes_per_site(self) -> Dict[SiteId, Dict[str, int]]:
        """Measured per-site wire traffic: delivered payload bytes each
        site put on the wire and received, from the network's per-link
        counters (departed sites included — their traffic happened)."""
        ids = set(self.sites)
        for src, dst in self.network.link_bytes:
            ids.add(src)
            ids.add(dst)
        return {
            site: {
                "sent": self.network.link_bytes_from(site),
                "received": self.network.link_bytes_to(site),
            }
            for site in sorted(ids)
        }

    # -- convergence -----------------------------------------------------------------

    def is_converged(self) -> bool:
        """All sites expose the same visible atom sequence."""
        contents = [site.atoms() for site in self.sites.values()]
        return all(c == contents[0] for c in contents[1:])

    def assert_converged(self, identities: bool = False) -> List[object]:
        """Check convergence and shared-state integrity; returns the
        common atom sequence.

        Requires true quiescence: no messages pending in the queue
        *and* none held behind a partition — a partitioned cluster has
        traffic its isolated sites have not seen, so agreement among
        them would be vacuous, not convergence. Heal and settle first.

        With ``identities`` the check is strengthened from visible
        atoms to full **PosID identity**: every site must bind the same
        position identifier to the same atom, position by position —
        what the delta-merge path must preserve (same text via
        different identifiers would be a silent future conflict).
        """
        if self.network.pending:
            raise ReplicationError(
                f"{self.network.pending} messages still pending; "
                "call settle() before checking convergence"
            )
        if self.network.held:
            raise ReplicationError(
                f"{self.network.held} messages held behind a partition; "
                "heal() and settle() before checking convergence"
            )
        reference: Optional[List[object]] = None
        reference_ids: Optional[List[Tuple[object, object]]] = None
        for site in self.sites.values():
            atoms = site.atoms()
            site.doc.check()
            if reference is None:
                reference = atoms
            elif atoms != reference:
                raise ReplicationError(
                    f"site {site.site} diverged: {atoms!r} != {reference!r}"
                )
            if not identities:
                continue
            bound = self._identity(site)
            if reference_ids is None:
                reference_ids = bound
            elif bound != reference_ids:
                diverged = [
                    index for index, (ours, theirs)
                    in enumerate(zip(bound, reference_ids))
                    if ours != theirs
                ][:3]
                raise ReplicationError(
                    f"site {site.site} agrees on text but not identity "
                    f"(first differing positions: {diverged})"
                )
        return reference or []

    @staticmethod
    def _identity(site: ReplicaSite) -> List[Tuple[object, object]]:
        """The site's (PosID, atom) sequence, in document order (a pure
        read: collapsed regions stay collapsed)."""
        tree = site.doc.tree
        return list(zip(tree.posids(), tree.atoms()))

    # -- convenience editing -----------------------------------------------------------

    def bootstrap(self, atoms: Sequence[object],
                  site: Optional[SiteId] = None) -> None:
        """Create initial content at one site and replicate it."""
        origin = self.sites[site if site is not None else self.site_ids[0]]
        origin.insert_text(0, list(atoms))
        self.settle()

    def gossip_acks(self) -> None:
        """Every site gossips its applied clock and the network settles;
        with ``tombstone_gc`` enabled this advances the stable frontier
        and purges stable SDIS tombstones everywhere."""
        for site in self.sites.values():
            site.broadcast_ack()
        self.settle()
