"""Causal-stability tracking: SDIS tombstone garbage collection.

Section 4.2: "Deleted nodes can be garbage-collected even when using
site identifiers as soon as it is clear that every site has already
deleted the atom and no operation referring to it will be issued."

The standard mechanism is causal stability: each site gossips the
vector clock of operations it has *applied*; the pointwise minimum over
all sites is the *stable frontier* — every operation at or below it has
been applied everywhere, so no future operation can causally depend on
anything only reachable through a tombstone older than the frontier.
A tombstone created by delete ``d`` can be purged once ``d`` is stable
**and** the insert it shadows is stable (always implied), because:

- no site will issue a concurrent insert adjacent to the tombstone's
  identifier anymore without having seen the delete, and
- a purged identifier that is minted again (section 3.3.2: an SDIS
  disambiguator is the site id alone) comes back in an insert whose
  causal past holds the delete. Acks are not causal, so that insert can
  reach a site that has not purged yet; the site purges the tombstone
  there and then applies (``ReplicaSite``). Purged leaf structure is
  pruned; interior slots stay as empty structure, as under UDIS.

``StabilityTracker`` maintains the frontier; ``purge_stable_tombstones``
applies it to a Treedoc replica. The replica site wires both together;
acknowledgement clocks travel as plain
:class:`repro.replication.wire.AckFrame` wire frames (merges are
idempotent and order-insensitive, so acks need no causal ordering).

A delete the site applied one by one has a delete-log record and
purges when its own event is stable. Tombstones adopted wholesale — a
state snapshot, a checkpoint, a delta merge — have no record: they
share one *stamp*, the clock of the frame that carried them (every
delete in the frame is at or below it), and
``purge_unlogged_tombstones`` finds them in one walk once the stamp is
stable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.disambiguator import SiteId
from repro.core.node import (
    DEAD_ATOM,
    TOMBSTONE,
    ArrayLeaf,
    iter_subtree_entries,
)
from repro.core.treedoc import Treedoc
from repro.replication.clock import VectorClock


class StabilityTracker:
    """Computes the stable frontier from per-site acknowledgements.

    Membership is dynamic (clusters churn): :meth:`ensure_member` adds
    a newly observed site — conservatively, since a member that has
    never acked pins the frontier at zero until it speaks. The frontier
    is cached and recomputed only after an ack actually changed
    something, so piggybacked acks (every envelope's clock is one) cost
    one clock merge on the hot path, not an O(members × origins)
    minimum per message.
    """

    def __init__(self, members: Tuple[SiteId, ...] = ()) -> None:
        self._acks: Dict[SiteId, VectorClock] = {
            site: VectorClock() for site in members
        }
        self._frontier: VectorClock = VectorClock()
        self._dirty = True

    @property
    def members(self) -> Tuple[SiteId, ...]:
        return tuple(sorted(self._acks))

    def ensure_member(self, site: SiteId) -> None:
        """Admit ``site`` to the membership (no-op when present)."""
        if site not in self._acks:
            self._acks[site] = VectorClock()
            self._dirty = True

    def forget_member(self, site: SiteId) -> None:
        """Drop a permanently departed member so its last ack stops
        pinning the frontier. Only safe once the departure is known to
        every surviving site (the caller's protocol burden)."""
        if self._acks.pop(site, None) is not None:
            self._dirty = True

    def record_ack(self, site: SiteId, applied: VectorClock) -> None:
        """Merge a (possibly stale, reordered) acknowledgement."""
        merged = self._acks.get(site, VectorClock()).merge(applied)
        if site not in self._acks or merged != self._acks[site]:
            self._acks[site] = merged
            self._dirty = True

    def stable_frontier(self) -> VectorClock:
        """Pointwise minimum of every member's applied clock (cached)."""
        if not self._dirty:
            return self._frontier
        self._dirty = False
        if not self._acks:
            self._frontier = VectorClock()
            return self._frontier
        members = list(self._acks)
        counts: Dict[SiteId, int] = {}
        candidates = {site for site, _ in self._acks[members[0]].items()}
        for member in members[1:]:
            candidates &= {site for site, _ in self._acks[member].items()}
        for origin in candidates:
            counts[origin] = min(
                self._acks[member].get(origin) for member in members
            )
        self._frontier = VectorClock(counts)
        return self._frontier

    def is_stable(self, origin: SiteId, sequence: int) -> bool:
        """Has the ``sequence``-th op of ``origin`` been applied by all?"""
        return self.stable_frontier().get(origin) >= sequence


def purge_stable_tombstones(
    doc: Treedoc,
    delete_log: List[Tuple[object, SiteId, int]],
    frontier: VectorClock,
) -> int:
    """Discard tombstones whose delete is causally stable.

    ``delete_log`` holds ``(posid, delete_origin, delete_sequence)`` for
    applied deletes; purged entries are removed from it, with every
    other entry naming the same identifier (a concurrent delete of the
    same atom — it must not later purge a re-minted successor's
    tombstone). Returns the number of tombstones discarded. Purging
    mirrors the UDIS discard: the slot empties, and leaf structure is
    pruned.
    """
    purged = 0
    freed = set()
    for posid, origin, sequence in delete_log:
        if frontier.get(origin) < sequence:
            continue
        freed.add(posid)
        slot = doc.tree.lookup(posid)
        if slot is not None and slot.state == TOMBSTONE:
            doc.tree.purge_tombstone(slot)
            purged += 1
    if freed:
        delete_log[:] = [entry for entry in delete_log
                         if entry[0] not in freed]
    return purged


def purge_unlogged_tombstones(
    doc: Treedoc,
    delete_log: List[Tuple[object, SiteId, int]],
) -> int:
    """Discard every tombstone ``delete_log`` does not name: the ones a
    stable stamp covers. Returns the number discarded.

    One entry walk finds them; a collapsed region holding dead slots
    explodes (as a purge by PosID would explode it) and its subtree is
    walked in turn. Tombstones of logged deletes wait for their own
    records."""
    tree = doc.tree
    kept = set()
    for posid, _, _ in delete_log:
        slot = tree.lookup(posid)
        if slot is not None and slot.atom is DEAD_ATOM:
            kept.add(id(slot))
    if tree.id_length - tree.live_length <= len(kept):
        return 0
    dead: List[object] = []
    leaves: List[ArrayLeaf] = []

    def collect(root) -> None:
        for entry in iter_subtree_entries(root):
            if type(entry) is ArrayLeaf:
                if entry.dead:
                    leaves.append(entry)
            elif entry.atom is DEAD_ATOM and id(entry) not in kept:
                dead.append(entry)

    collect(tree.root)
    for leaf in leaves:
        collect(tree.explode_leaf(leaf))
    for slot in dead:
        tree.purge_tombstone(slot)
    return len(dead)
