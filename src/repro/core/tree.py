"""The Treedoc tree: storage, lookup, counts and infix navigation.

This module implements the mutable tree that backs a Treedoc replica:
materializing identifier paths into nodes, applying remote inserts and
deletes, tombstone bookkeeping (SDIS) or discard-and-prune (UDIS),
index-to-slot descent via cached counts, and O(depth) infix successor /
predecessor walks over atom slots (used by the tombstone-aware neighbour
search and by the allocator's empty-slot reuse).

Incremental read path (DESIGN.md section 6)
-------------------------------------------

The tree maintains a *live-snapshot cache*: a flat list of the live atom
slots in document order, spliced in place by every slot-state change
(``set_live``, ``make_tombstone``, ``discard``) and coalesced to one
splice per bulk section. While the cache is valid, ``atoms()``,
``posids()`` and ``live_slot_at`` are O(1)/O(k) list operations instead
of O(n) tree walks / O(depth) descents. Structural surgery
(``recount_subtree`` after flatten/explode, disk load) *invalidates* the
cache — never leaves it stale — and the next snapshot read rebuilds it
with one walk. ``purge_tombstone`` does not touch the live sequence, so
the cache stays valid across SDIS garbage collection.

Two companions ride along: a monotonically increasing *generation*
counter (bumped on every visible-content change) that downstream layers
key their own derived caches on (text, editor lines, replica
snapshots), and an *edit finger* — the last resolved ``(index, slot)``
pair — that resolves nearby live indexes by successor/predecessor
chain walks when the snapshot cache is unavailable, exploiting the
edit locality the paper's trace study reports.

Live mixed storage (DESIGN.md section 7, paper section 4.2)
-----------------------------------------------------------

Quiescent subtrees in canonical exploded form may be *collapsed* into
:class:`repro.core.node.ArrayLeaf` children — a bare atom list with one
parent link and zero per-atom metadata (:meth:`collapse_subtree`). The
snapshot cache then holds the leaf as **one entry contributing a
slice**, so ``atoms()``/``text()`` extend from the array at C speed
instead of appending per slot. Any operation that needs real structure
inside a region — a remote path resolving into it (``materialize`` /
``lookup``), an index descent, a successor/predecessor walk, an
allocation landing next to it — *explodes on touch*: the canonical form
is rebuilt deterministically and locally (:meth:`explode_leaf`), so
replicas never ship an explode operation and a collapsing replica stays
bit-identical in identifier space with a non-collapsing one. Collapse
and explode preserve the subtree counts exactly (a leaf reports its
visible atoms and used identifiers as its aggregates), so neither
touches ancestor aggregates or the generation counter; both *splice*
the snapshot cache in place — a collapse folds the region's slot
entries into one leaf entry, an explode expands the leaf entry into
the new subtree's live entries — so a mixed cache survives edits
around untouched leaf segments instead of being dropped and rebuilt.

Large leaves explode *partially* (DESIGN.md section 12): the spine to
the touched atom is materialized as real canonical structure while the
off-spine sides stay collapsed as sub-leaves, bounding the explode to
O(edit) instead of O(region). The split follows the canonical
``_canonical_split`` arithmetic at every level, so the partial form is
a strict subset of the full canonical form and replicas that exploded
fully remain PosID-identical with replicas that exploded partially.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.disambiguator import Disambiguator
from repro.core.node import (
    EMPTY,
    LIVE,
    TOMBSTONE,
    ArrayLeaf,
    AtomSlot,
    Entry,
    MiniNode,
    PathMemo,
    PosNode,
    build_exploded,
    build_partial_exploded,
    canonical_bits_to_index,
    canonical_path_bits,
    collect_leaf_slots,
    iter_subtree_entries,
    parent_host,
    slot_depth,
    slot_host,
    slot_is_id_holder,
    slot_is_live,
    slot_posid,
    slot_posids,
)
from repro.core.path import LEFT, PLAIN, RIGHT, PosID
from repro.errors import MissingAtomError, TreeError


def _as_node(child) -> PosNode:
    """Resolve a plain child to tree form. A walk about to step *inside*
    a collapsed region is applying a path to an array: explode it
    (section 4.2.1) — deterministic and local, so no replication."""
    if isinstance(child, ArrayLeaf):
        return child.explode()
    return child


def _leftmost_slot(node: PosNode) -> AtomSlot:
    """First slot (in infix order) of the subtree rooted at ``node``."""
    # The leaf check is inlined (not _as_node): this loop runs once per
    # tree level on the replay hot path. A collapsed region explodes
    # around its first atom — the walk only needs the region's edge.
    while True:
        child = node.left
        if child is None:
            return node
        if type(child) is ArrayLeaf:
            child = child.explode(0)
        node = child


def _mini_region_first(mini: MiniNode) -> AtomSlot:
    """First slot of a mini-node's region (its left subtree, then it)."""
    if mini.left is not None:
        return _leftmost_slot(_as_node(mini.left))
    return mini


def _rightmost_slot(node: PosNode) -> AtomSlot:
    """Last slot (in infix order) of the subtree rooted at ``node``."""
    while True:
        child = node.right
        if child is not None:
            if type(child) is ArrayLeaf:
                child = child.explode(len(child.atoms) - 1)
            node = child
            continue
        if node.minis:
            mini = node.minis[-1]
            if mini.right is not None:
                node = _as_node(mini.right)
                continue
            return mini
        return node


def _mini_index(host: PosNode, mini: MiniNode) -> int:
    """Position of ``mini`` within its host's sorted mini list."""
    for index, candidate in enumerate(host.minis):
        if candidate is mini:
            return index
    raise TreeError("mini-node not attached to its host")


def _after_mini_region(host: PosNode, index: int) -> Optional[AtomSlot]:
    """Slot following the region of ``host.minis[index]``, within or
    above ``host``."""
    if index + 1 < len(host.minis):
        return _mini_region_first(host.minis[index + 1])
    if host.right is not None:
        return _leftmost_slot(_as_node(host.right))
    return _up_successor(host)


def _up_successor(node: PosNode) -> Optional[AtomSlot]:
    """Slot following the entire subtree rooted at ``node``."""
    while True:
        container = node.parent
        if container is None:
            return None
        bit = node.side
        if isinstance(container, MiniNode):
            if bit == LEFT:
                return container
            host = container.host
            return _after_mini_region(host, _mini_index(host, container))
        if bit == LEFT:
            return container
        node = container


def successor_slot(slot: AtomSlot) -> Optional[AtomSlot]:
    """The next atom slot in identifier order, or None at the end.

    Stepping into a collapsed region explodes it (the caller needs real
    slots: neighbour searches and range walks precede edits)."""
    if isinstance(slot, MiniNode):
        if slot.right is not None:
            return _leftmost_slot(_as_node(slot.right))
        host = slot.host
        return _after_mini_region(host, _mini_index(host, slot))
    # A position node's plain slot: next is its first mini region, then
    # its right subtree, then upwards.
    node = slot
    if node.minis:
        return _mini_region_first(node.minis[0])
    child = node.right
    if child is not None:
        if type(child) is ArrayLeaf:
            child = child.explode(0)
        return _leftmost_slot(child)
    return _up_successor(node)


def _before_mini_region(host: PosNode, index: int) -> AtomSlot:
    """Slot preceding the region of ``host.minis[index]``."""
    if index > 0:
        previous = host.minis[index - 1]
        if previous.right is not None:
            return _rightmost_slot(_as_node(previous.right))
        return previous
    return host  # the host's plain slot precedes its first mini


def _up_predecessor(node: PosNode) -> Optional[AtomSlot]:
    """Slot preceding the entire subtree rooted at ``node``."""
    while True:
        container = node.parent
        if container is None:
            return None
        bit = node.side
        if isinstance(container, MiniNode):
            if bit == RIGHT:
                return container
            host = container.host
            return _before_mini_region(host, _mini_index(host, container))
        if bit == RIGHT:
            if container.minis:
                mini = container.minis[-1]
                if mini.right is not None:
                    return _rightmost_slot(_as_node(mini.right))
                return mini
            return container
        node = container


def predecessor_slot(slot: AtomSlot) -> Optional[AtomSlot]:
    """The previous atom slot in identifier order, or None at the start."""
    if isinstance(slot, MiniNode):
        if slot.left is not None:
            return _rightmost_slot(_as_node(slot.left))
        host = slot.host
        return _before_mini_region(host, _mini_index(host, slot))
    node = slot
    if node.left is not None:
        return _rightmost_slot(_as_node(node.left))
    return _up_predecessor(node)


class TreedocTree:
    """The extended binary tree backing one Treedoc replica."""

    #: Live-index window within which the edit finger walks the
    #: successor/predecessor chain instead of descending from the root.
    FINGER_WINDOW = 64
    #: Hard cap on chain steps per finger walk (tombstone runs between
    #: live slots can make a short live distance arbitrarily long).
    FINGER_STEP_LIMIT = 256

    def __init__(self) -> None:
        self.root = PosNode()
        #: Deepest path length materialized so far (drives the balancing
        #: growth factor of section 4.1).
        self.height = 0
        #: When a bulk section is open, per-host (live, id) count deltas
        #: accumulate here instead of walking the spine per slot change;
        #: entries hold the node reference so ``id()`` keys stay unique.
        self._bulk_deltas: Optional[Dict[int, List]] = None
        #: Read-path feature toggles (benchmark A/B switches; production
        #: code leaves both on).
        self.cache_enabled = True
        self.finger_enabled = True
        #: The live-snapshot cache: live *entries* in document order —
        #: atom slots, plus one entry per collapsed region (ArrayLeaf) —
        #: or None when invalidated (an empty tree has a valid empty
        #: cache). Without leaves every entry has width 1 and all the
        #: splice fast paths below apply unchanged; with leaves, every
        #: mutation splices *around* untouched leaf segments.
        self._live: Optional[List[Entry]] = []
        #: True when the cache holds at least one ArrayLeaf entry
        #: (mirrors ``_live_leaves > 0``; kept as a plain attribute for
        #: the hot-path reads).
        self._live_has_leaf = False
        #: Number of ArrayLeaf entries currently in the cache,
        #: maintained by every splice.
        self._live_leaves = 0
        #: Total live atoms the cache represents (sum of entry widths:
        #: 1 per slot entry, ``live_count`` per leaf entry); meaningful
        #: only while ``_live`` is not None.
        self._live_total = 0
        #: Lazily built cumulative live-index starts per cache entry
        #: (only needed, and only built, when leaf entries exist).
        self._live_starts: Optional[List[int]] = None
        #: Bumped on every visible-content change; downstream layers key
        #: derived caches (text, lines, snapshots) on it.
        self._generation = 0
        #: Edit finger: last resolved (live index, slot), or None.
        self._finger: Optional[Tuple[int, AtomSlot]] = None
        #: Per-bulk-section cache deltas, coalesced at :meth:`end_bulk`.
        self._bulk_added: List[AtomSlot] = []
        self._bulk_removed = False
        #: Optional hint that the section's removals are exactly the
        #: live range [start, end) (set by range deletes resolved off
        #: the cache): one slice delete replaces the compaction pass.
        self._bulk_removed_range: Optional[Tuple[int, int]] = None
        #: Optional hint that the section's additions are one run whose
        #: first atom lands at this live index (local run inserts): the
        #: flush splices there without per-slot rank queries.
        self._bulk_added_at: Optional[int] = None
        #: Plain ``weakref.ref`` to the owning document, whose
        #: ``_on_explode(node)`` is called after every leaf explosion
        #: with the new subtree root (it feeds its re-collapse
        #: hysteresis and incremental sweep queue from it). A plain
        #: weakref is gc-opaque, so the tree's reachability graph never
        #: includes its owner.
        self._explode_listener = None
        #: Storage-health counters (surfaced by ``measure_tree`` and the
        #: daemon's admin status): region explosions (full and partial),
        #: snapshot-cache drops (a cache existed and was discarded) and
        #: segment-aware splices performed on a leaf-bearing cache.
        self.explodes = 0
        self.partial_explodes = 0
        self.cache_drops = 0
        self.cache_splices = 0

    @property
    def generation(self) -> int:
        """Monotonic counter of visible-content changes."""
        return self._generation

    def configure_read_cache(self, snapshot: bool = True,
                             finger: bool = True) -> None:
        """Toggle the read-path optimizations (benchmark A/B switch).

        Disabling the snapshot cache drops it and stops maintaining it;
        disabling the finger falls back to root descents. Re-enabling
        the cache leaves it invalid until the next snapshot read.
        """
        self.cache_enabled = snapshot
        self.finger_enabled = finger
        if not snapshot:
            self._live = None
            self._live_has_leaf = False
            self._live_leaves = 0
            self._live_total = 0
            self._live_starts = None
        if not finger:
            self._finger = None

    # -- path <-> structure ---------------------------------------------------

    @staticmethod
    def _leaf_touch_offset(leaf: ArrayLeaf, elements, position: int) -> int:
        """Slot offset inside ``leaf`` that the remaining path elements
        (``elements[position:]``) route to or through — the
        partial-explode touch point for a remote path landing in the
        region. Plain bits descend the canonical structure; the first
        disambiguated element anchors at the node its bit reaches (its
        mini-node hangs there); a path ending at the region root
        anchors at the root's own slot."""
        bits: List[int] = []
        for element in elements[position:]:
            bits.append(element.bit)
            if element.dis is not None:
                break
        return canonical_bits_to_index(len(leaf.atoms), bits)

    def materialize(self, posid: PosID) -> AtomSlot:
        """Walk ``posid``, creating missing structure; return its slot.

        Re-creates discarded ancestors, as the replay version of insert
        must under UDIS (section 3.3.1). A path landing on or inside a
        collapsed region explodes it first (section 4.2.1) — around the
        touched offset, so a large region only materializes its spine.
        """
        context: AtomSlot = self.root
        elements = posid.elements
        for position, element in enumerate(elements):
            child = context.child(element.bit)
            if child is None:
                child = PosNode(context, element.bit)
                context.set_child(element.bit, child)
            elif isinstance(child, ArrayLeaf):
                child = self.explode_leaf(
                    child,
                    self._leaf_touch_offset(child, elements, position + 1),
                )
            if element.dis is None:
                context = child
            else:
                context = child.get_or_create_mini(element.dis)
        if posid.depth > self.height:
            self.height = posid.depth
        return context

    def lookup(self, posid: PosID) -> Optional[AtomSlot]:
        """The slot named by ``posid`` if its structure exists, else None.

        Like :meth:`materialize`, a path routing into a collapsed region
        explodes it — a lookup precedes a structural use of the slot."""
        context: AtomSlot = self.root
        elements = posid.elements
        for position, element in enumerate(elements):
            child = context.child(element.bit)
            if child is None:
                return None
            if isinstance(child, ArrayLeaf):
                child = self.explode_leaf(
                    child,
                    self._leaf_touch_offset(child, elements, position + 1),
                )
            if element.dis is None:
                context = child
            else:
                mini = child.find_mini(element.dis)
                if mini is None:
                    return None
                context = mini
        return context

    # -- counts ----------------------------------------------------------------

    def _adjust_counts(self, slot: AtomSlot, d_live: int, d_id: int) -> None:
        """Propagate a slot-state change up the position-node spine.

        Inside a bulk section the delta is buffered at the slot's host
        instead; :meth:`end_bulk` propagates every buffered delta in one
        bottom-up pass, so a batch touching *n* slots under a shared
        subtree costs the shared spine once instead of *n* times.
        """
        if d_live == 0 and d_id == 0:
            return
        if self._bulk_deltas is not None:
            host = slot_host(slot)
            entry = self._bulk_deltas.get(id(host))
            if entry is None:
                self._bulk_deltas[id(host)] = [host, d_live, d_id]
            else:
                entry[1] += d_live
                entry[2] += d_id
            return
        node: Optional[PosNode] = slot_host(slot)
        while node is not None:
            node.live_count += d_live
            node.id_count += d_id
            container = node.parent
            if container is None:
                break
            node = container.host if isinstance(container, MiniNode) else container

    # -- live-snapshot cache maintenance ------------------------------------------

    def invalidate_live_cache(self) -> None:
        """Drop the live-snapshot cache and edit finger.

        Called around structural surgery (flatten rebuilds, disk load,
        ``recount_subtree``): the next snapshot read rebuilds the cache
        with one walk. Invalidation — never staleness — is the
        contract; the generation bump makes downstream derived caches
        (text, lines, snapshots) refresh too.
        """
        self._generation += 1
        self._drop_live_cache()

    def _drop_live_cache(self) -> None:
        """Drop the cache and finger *without* a generation bump: used
        around structural surgery whose result the splice paths cannot
        follow (flatten rebuilds, disk load, recounts)."""
        if self._live is not None:
            self.cache_drops += 1
        self._live = None
        self._live_has_leaf = False
        self._live_leaves = 0
        self._live_total = 0
        self._live_starts = None
        self._finger = None

    def _ensure_live(self) -> Optional[List[Entry]]:
        """The live-snapshot cache, rebuilding it if invalidated.
        Returns None when the cache is disabled."""
        live = self._live
        if live is None and self.cache_enabled:
            live = []
            append = live.append
            leaves = 0
            total = 0
            for entry in iter_subtree_entries(self.root):
                # Slots first (the common case); a leaf's pseudo-state
                # never equals LIVE.
                if entry.state == LIVE:
                    append(entry)
                    total += 1
                elif type(entry) is ArrayLeaf:
                    append(entry)
                    leaves += 1
                    total += entry.live_count
            self._live = live
            self._live_has_leaf = leaves > 0
            self._live_leaves = leaves
            self._live_total = total
            self._live_starts = None
        return live

    def _position_at(self, index: int) -> Tuple[int, int]:
        """``(cache entry position, offset inside that entry)`` covering
        live ``index``; an index at or past the cached total maps to
        ``(len(cache), overshoot)``. Valid cache required."""
        starts = self._live_starts
        if starts is None:
            starts = []
            total = 0
            for entry in self._live:
                starts.append(total)
                total += (
                    entry.live_count if isinstance(entry, ArrayLeaf) else 1
                )
            self._live_starts = starts
        if index >= self._live_total:
            return len(self._live), index - self._live_total
        position = bisect_right(starts, index) - 1
        return position, index - starts[position]

    def _entry_at(self, index: int) -> Tuple[Entry, int]:
        """Cache entry covering live ``index``, plus the offset inside
        it (0 for slots; a *live* atom offset for ArrayLeaf entries).
        Valid cache required."""
        position, offset = self._position_at(index)
        return self._live[position], offset

    def _note_insert(self, slot: AtomSlot) -> None:
        """Record ``slot`` turning LIVE (counts already adjusted).

        Outside a bulk section this splices the cache in place: an
        O(depth) rank query plus an O(n) C-level memmove. That keeps
        single-op editing (type a character, read the line) far cheaper
        than an invalidate-and-rebuild would, at the cost of making a
        *large* document replayed through the legacy one-op-at-a-time
        path quadratic in memmove work — the batch API (one splice per
        batch) is the intended path for bulk replay.
        """
        self._generation += 1
        if self._bulk_deltas is not None:
            self._bulk_added.append(slot)
            return
        live = self._live
        if live is not None:
            rank = self.live_rank(slot)
            if not self._live_has_leaf:
                if rank == len(live):
                    live.append(slot)
                else:
                    live.insert(rank, slot)
                self._live_total += 1
            else:
                # Leaf entries make live indexes differ from entry
                # positions: locate the boundary covering ``rank`` and
                # splice the new slot there, leaving every untouched
                # leaf segment opaque. A rank strictly interior to a
                # leaf entry is impossible — a mutation inside a region
                # explodes it first, and the explode splice replaced
                # the leaf entry already — so an interior hit means the
                # bookkeeping drifted: invalidate, never go stale.
                position, offset = self._position_at(rank)
                if offset:
                    self.invalidate_live_cache()
                    if self.finger_enabled:
                        self._finger = (rank, slot)
                    return
                live.insert(position, slot)
                self._live_starts = None
                self._live_total += 1
                self.cache_splices += 1
            if self.finger_enabled:
                self._finger = (rank, slot)
        elif self.finger_enabled:
            # No cache to index into, but the new slot is the freshest
            # edit location — exactly what the finger wants.
            self._finger = (self.live_rank(slot), slot)

    def _note_remove(self, slot: AtomSlot) -> None:
        """Record ``slot`` leaving the LIVE state (call *before* the
        state flip: the rank query needs the pre-change counts)."""
        self._generation += 1
        if self._bulk_deltas is not None:
            self._bulk_removed = True
            return
        rank: Optional[int] = None
        live = self._live
        if live is not None:
            rank = self.live_rank(slot)
            if not self._live_has_leaf:
                if rank < len(live) and live[rank] is slot:
                    del live[rank]
                    self._live_total -= 1
                else:
                    # Bookkeeping out of sync: the counts' rank and the
                    # cached sequence disagree about this slot.
                    self.invalidate_live_cache()
                    return
            else:
                position, offset = self._position_at(rank)
                if (
                    offset == 0
                    and position < len(live)
                    and live[position] is slot
                ):
                    del live[position]
                    self._live_starts = None
                    self._live_total -= 1
                    self.cache_splices += 1
                else:
                    # The covering entry is not this slot (an interior
                    # leaf offset, or drifted counts): invalidate.
                    self.invalidate_live_cache()
                    return
        finger = self._finger
        if finger is not None:
            if finger[1] is slot:
                self._finger = None
            else:
                if rank is None:
                    rank = self.live_rank(slot)
                if rank < finger[0]:
                    self._finger = (finger[0] - 1, finger[1])

    def hint_bulk_removed_range(self, start: int, end: int) -> None:
        """Tell the open bulk section that its removals are exactly the
        live slots currently at [start, end) (a cache-resolved range
        delete): :meth:`end_bulk` then splices instead of compacting."""
        if self._bulk_deltas is None:
            raise TreeError("removal-range hint outside a bulk section")
        self._bulk_removed_range = (start, end)

    def hint_bulk_added_at(self, index: int) -> None:
        """Tell the open bulk section that its additions are one
        document-order run whose first atom becomes the live slot at
        ``index`` (a local run insert): :meth:`end_bulk` then splices
        there without per-slot rank queries."""
        if self._bulk_deltas is None:
            raise TreeError("added-at hint outside a bulk section")
        self._bulk_added_at = index

    def _flush_bulk_cache(self) -> None:
        """Fold a closed bulk section's slot changes into the cache:
        one compaction pass (or one hinted slice delete) for removals,
        one splice (contiguous runs, the common case) or one ordered
        merge for insertions. Leaf entries are opaque segments spliced
        *around* — explode/collapse inside the section already kept the
        entry list aligned — and only drifted bookkeeping (a hint that
        does not match the changes actually made) invalidates."""
        added = self._bulk_added
        removed = self._bulk_removed
        removed_range = self._bulk_removed_range
        added_at = self._bulk_added_at
        self._bulk_removed_range = None
        self._bulk_added_at = None
        if not added and not removed:
            return
        self._bulk_added = []
        self._bulk_removed = False
        self._finger = None
        live = self._live
        if live is None:
            return
        has_leaf = self._live_has_leaf
        if removed:
            if removed_range is not None and not added:
                start, end = removed_range
                count = end - start
                if not has_leaf:
                    del live[start:end]
                    self._live_total -= count
                else:
                    position, offset = self._position_at(start)
                    # Range deletes explode every overlapping region up
                    # front (live_slice), so the range covers width-1
                    # entries only; an interior leaf offset means the
                    # hint and the cache disagree.
                    if offset or any(
                        type(s) is ArrayLeaf
                        for s in live[position:position + count]
                    ):
                        self.invalidate_live_cache()
                        return
                    del live[position:position + count]
                    self._live_starts = None
                    self._live_total -= count
                    self.cache_splices += 1
                if self._live_total != self.root.live_count:
                    # The hint did not match the removals actually made.
                    self.invalidate_live_cache()
                return
            kept: List[Entry] = []
            total = 0
            for entry in live:
                if entry.state == LIVE:
                    kept.append(entry)
                    total += 1
                elif type(entry) is ArrayLeaf:
                    kept.append(entry)
                    total += entry.live_count
            live = kept
            self._live = live
            self._live_total = total
            if has_leaf:
                self._live_starts = None
                self.cache_splices += 1
        if added:
            if added_at is not None and not removed:
                # A local run insert: the slots land, in batch order, as
                # the contiguous live range starting at the hinted index
                # — splice without any rank queries.
                if not has_leaf:
                    live[added_at:added_at] = added
                else:
                    position, offset = self._position_at(added_at)
                    if offset:
                        self.invalidate_live_cache()
                        return
                    live[position:position] = added
                    self._live_starts = None
                    self.cache_splices += 1
                self._live_total += len(added)
                if self._live_total != self.root.live_count:
                    # The hint did not match the additions actually made.
                    self.invalidate_live_cache()
                return
            seen: set = set()
            pairs: List[Tuple[int, AtomSlot]] = []
            for slot in added:
                key = id(slot)
                # Skip duplicates and slots deleted later in the same
                # batch; ranks are valid now that end_bulk flushed counts.
                if key not in seen and slot.state == LIVE:
                    seen.add(key)
                    pairs.append((self.live_rank(slot), slot))
            total = self.root.live_count
            if self._live_total + len(pairs) != total:
                # A slot re-entered the cache (or bookkeeping drifted):
                # fall back to invalidation, never to staleness.
                self.invalidate_live_cache()
                return
            if not pairs:
                # Every added slot died again within the same batch
                # (insert+delete of the same identifier): nothing to
                # splice.
                return
            pairs.sort(key=lambda pair: pair[0])
            lo = pairs[0][0]
            if pairs[-1][0] - lo == len(pairs) - 1:
                if not has_leaf:
                    live[lo:lo] = [slot for _, slot in pairs]
                else:
                    position, offset = self._position_at(lo)
                    if offset:
                        self.invalidate_live_cache()
                        return
                    live[position:position] = [slot for _, slot in pairs]
                    self._live_starts = None
                    self.cache_splices += 1
                self._live_total = total
            else:
                # Scattered insertions: one ordered merge over entries,
                # advancing a live-index cursor by each entry's width.
                merged: List[Entry] = []
                cursor = 0
                old_index = 0
                old_count = len(live)
                next_added = 0
                npairs = len(pairs)
                while next_added < npairs or old_index < old_count:
                    if next_added < npairs and pairs[next_added][0] == cursor:
                        merged.append(pairs[next_added][1])
                        next_added += 1
                        cursor += 1
                        continue
                    if old_index >= old_count:
                        # A rank points past the end: drifted.
                        self.invalidate_live_cache()
                        return
                    entry = live[old_index]
                    old_index += 1
                    if type(entry) is ArrayLeaf:
                        width = entry.live_count
                        if (
                            next_added < npairs
                            and pairs[next_added][0] < cursor + width
                        ):
                            # A rank interior to a leaf segment: the
                            # region should have exploded first.
                            self.invalidate_live_cache()
                            return
                        merged.append(entry)
                        cursor += width
                    else:
                        merged.append(entry)
                        cursor += 1
                self._live = merged
                self._live_total = total
                if has_leaf:
                    self._live_starts = None
                    self.cache_splices += 1
        if self._live is not None and self._live_total != self.root.live_count:
            # Safety net: every path above must leave the cached widths
            # agreeing with the root's live count.
            self.invalidate_live_cache()

    # -- rank and finger navigation ------------------------------------------------

    def live_rank(self, slot: AtomSlot) -> int:
        """Number of live slots strictly before ``slot`` in identifier
        order, via the cached counts (O(depth)). Requires flushed counts
        (not callable inside a bulk section)."""
        if self._bulk_deltas is not None:
            raise TreeError("live_rank inside a bulk section")
        index = 0
        if isinstance(slot, MiniNode):
            host = slot.host
            if slot.left is not None:
                index += slot.left.live_count
            for mini in host.minis:
                if mini is slot:
                    break
                index += int(mini.state == LIVE)
                if mini.left is not None:
                    index += mini.left.live_count
                if mini.right is not None:
                    index += mini.right.live_count
            index += int(host.plain_state == LIVE)
            if host.left is not None:
                index += host.left.live_count
            node: PosNode = host
        else:
            node = slot
            if node.left is not None:
                index += node.left.live_count
        while node.parent is not None:
            container, bit = node.parent, node.side
            if isinstance(container, MiniNode):
                mini = container
                host = mini.host
                if bit == RIGHT:
                    index += int(mini.state == LIVE)
                    if mini.left is not None:
                        index += mini.left.live_count
                for earlier in host.minis:
                    if earlier is mini:
                        break
                    index += int(earlier.state == LIVE)
                    if earlier.left is not None:
                        index += earlier.left.live_count
                    if earlier.right is not None:
                        index += earlier.right.live_count
                index += int(host.plain_state == LIVE)
                if host.left is not None:
                    index += host.left.live_count
                node = host
            else:
                if bit == RIGHT:
                    index += int(container.plain_state == LIVE)
                    if container.left is not None:
                        index += container.left.live_count
                    for mini in container.minis:
                        index += int(mini.state == LIVE)
                        if mini.left is not None:
                            index += mini.left.live_count
                        if mini.right is not None:
                            index += mini.right.live_count
                node = container
        return index

    def _finger_seek(self, index: int) -> Optional[AtomSlot]:
        """Resolve live ``index`` by walking the successor/predecessor
        chain from the edit finger, or None when the finger is unset,
        too far, or the walk exceeds the step cap."""
        finger = self._finger
        if finger is None:
            return None
        position, slot = finger
        if slot.state != LIVE:
            # The finger slot was tombstoned/discarded behind our back;
            # walking from a detached slot is unsafe.
            self._finger = None  # pragma: no cover - defensive
            return None
        distance = index - position
        if distance == 0:
            return slot
        if distance > self.FINGER_WINDOW or -distance > self.FINGER_WINDOW:
            return None
        steps = self.FINGER_STEP_LIMIT
        step = successor_slot if distance > 0 else predecessor_slot
        remaining = distance if distance > 0 else -distance
        current: Optional[AtomSlot] = slot
        while remaining and steps:
            current = step(current)
            if current is None:  # pragma: no cover - counts out of sync
                return None
            steps -= 1
            if current.state == LIVE:
                remaining -= 1
        if remaining:
            return None  # step cap hit inside a tombstone desert
        self._finger = (index, current)
        return current

    # -- bulk sections (the apply_batch fast path) --------------------------------

    def begin_bulk(self) -> None:
        """Open a bulk section: count maintenance is deferred until
        :meth:`end_bulk`. While open, ``live_length`` / ``id_length`` and
        the index-to-slot descent are stale — callers must not read them
        (the Treedoc batch methods resolve every index first).
        """
        if self._bulk_deltas is not None:
            raise TreeError("bulk section already open")
        self._bulk_deltas = {}
        self._bulk_added = []
        self._bulk_removed = False
        self._bulk_removed_range = None
        self._bulk_added_at = None

    def end_bulk(self) -> None:
        """Close the bulk section: propagate the buffered count deltas.

        Deltas are applied level by level, deepest first; a node's delta
        is pushed into its parent's pending entry, so ancestors shared
        by many touched slots are visited once with the merged delta.
        Depths are memoized along shared spines, making the whole flush
        O(distinct spine nodes). Detached (pruned) nodes keep their
        parent links, so deltas buffered before a prune still reach the
        surviving ancestors.
        """
        pending = self._bulk_deltas
        self._bulk_deltas = None
        if not pending:
            self._flush_bulk_cache()
            return
        if len(pending) <= 8:
            # Few touched hosts (one-slot batches, tight edits): plain
            # spine walks beat the level-by-level machinery even with a
            # shared ancestor visited once per entry.
            for node, d_live, d_id in pending.values():
                walker: Optional[PosNode] = node
                while walker is not None:
                    walker.live_count += d_live
                    walker.id_count += d_id
                    walker = parent_host(walker)
            self._flush_bulk_cache()
            return
        depth_cache: Dict[int, int] = {}
        # All nodes reached below stay alive through the entries' strong
        # parent links, so id() keys cannot be reused mid-flush.
        levels: Dict[int, Dict[int, List]] = {}
        max_depth = 0
        for node, d_live, d_id in pending.values():
            trail: List[int] = []
            current: Optional[PosNode] = node
            while True:
                key = id(current)
                depth = depth_cache.get(key)
                if depth is not None:
                    break
                above = parent_host(current)
                if above is None:
                    depth = 0
                    depth_cache[key] = 0
                    break
                trail.append(key)
                current = above
            for key in reversed(trail):
                depth += 1
                depth_cache[key] = depth
            if depth > max_depth:
                max_depth = depth
            levels.setdefault(depth, {})[id(node)] = [node, d_live, d_id]
        for depth in range(max_depth, 0, -1):
            for entry in levels.pop(depth, {}).values():
                node, d_live, d_id = entry
                if d_live == 0 and d_id == 0:
                    continue
                node.live_count += d_live
                node.id_count += d_id
                host = parent_host(node)
                parent_entry = levels.setdefault(depth - 1, {}).get(id(host))
                if parent_entry is None:
                    levels[depth - 1][id(host)] = [host, d_live, d_id]
                else:
                    parent_entry[1] += d_live
                    parent_entry[2] += d_id
        for entry in levels.pop(0, {}).values():
            node, d_live, d_id = entry
            node.live_count += d_live
            node.id_count += d_id
        self._flush_bulk_cache()

    def recount_subtree(self, node: PosNode,
                        old_counts: Optional[Tuple[int, int]] = None
                        ) -> Tuple[int, int]:
        """Recompute ``(live, id)`` counts of ``node``'s subtree bottom-up
        and fix ancestor aggregates by the delta (used after structural
        surgery such as flatten).

        ``old_counts`` must be the subtree's ``(live, id)`` as the
        ancestors last saw them; pass the values captured *before* the
        surgery when the surgery itself rewrote the node's cached counts
        (``build_exploded`` does).
        """
        if self._bulk_deltas is not None:
            raise TreeError("recount_subtree inside a bulk section")
        # Structural surgery: the cached live sequence (and the finger's
        # slot) may no longer exist — invalidate, never go stale.
        self.invalidate_live_cache()
        old = old_counts if old_counts is not None else (
            node.live_count, node.id_count
        )
        new = self._recount(node)
        d_live, d_id = new[0] - old[0], new[1] - old[1]
        container = node.parent
        while container is not None:
            host = container.host if isinstance(container, MiniNode) else container
            host.live_count += d_live
            host.id_count += d_id
            container = host.parent
        return new

    def _recount(self, node: PosNode) -> Tuple[int, int]:
        live = 0
        ids = 0
        # Post-order over position nodes, iteratively (deep trees).
        # Array-leaf children are their own ground truth — counts
        # maintained by construction, dead bitmap included — and are
        # not descended.
        order: List[PosNode] = []
        stack = [node]
        while stack:
            current = stack.pop()
            order.append(current)
            for mini in current.minis:
                if mini.left is not None:
                    stack.append(mini.left)
                if mini.right is not None:
                    stack.append(mini.right)
            for child in (current.left, current.right):
                if child is not None and type(child) is not ArrayLeaf:
                    stack.append(child)
        for current in reversed(order):
            live = int(current.plain_state == LIVE)
            ids = int(current.plain_state != EMPTY)
            for mini in current.minis:
                live += int(mini.state == LIVE)
                ids += int(mini.state != EMPTY)
                for child in (mini.left, mini.right):
                    if child is not None:
                        live += child.live_count
                        ids += child.id_count
            for child in (current.left, current.right):
                if child is not None:
                    live += child.live_count
                    ids += child.id_count
            current.live_count = live
            current.id_count = ids
        return (node.live_count, node.id_count)

    # -- mixed storage: collapse and explode (section 4.2) -----------------------

    #: Leaf size at or above which a targeted explode splits the region
    #: into ``leaf / exploded-core / leaf`` around the touch point
    #: instead of materializing every atom (partial explode).
    PARTIAL_EXPLODE_MIN = 256
    #: Atom count at or below which the partial descent stops splitting
    #: and materializes the remainder as plain canonical structure.
    PARTIAL_CORE_ATOMS = 64
    #: Minimum off-spine side worth keeping collapsed; smaller sides
    #: are materialized into the spine.
    PARTIAL_LEAF_MIN = 8

    def collapse_subtree(self, node: PosNode,
                         atoms: Optional[List[object]] = None,
                         min_atoms: int = 1,
                         dead: int = 0) -> ArrayLeaf:
        """Replace ``node``'s subtree by an :class:`ArrayLeaf` holding
        its atoms — zero per-atom metadata.

        The subtree must be in canonical exploded form
        (:func:`repro.core.node.collect_leaf_slots`) — fully live, or,
        for the tombstone-tolerant form, with stable SDIS tombstones at
        the offsets of the ``dead`` bitmap (the caller then passes the
        ``atoms`` and ``dead`` that harvest produced). Either way a
        later explode-on-touch rebuilds the identical structure and the
        transformation is invisible to remote operations; that is what
        makes collapse a purely local decision needing no replication.

        Counts are unchanged — the leaf reports the region's visible
        atoms and used identifiers as its aggregates — so no ancestor
        propagation happens; the snapshot cache is *spliced* (the
        region's slot entries fold into one leaf entry) without bumping
        the generation, since the visible content is untouched.
        """
        if self._bulk_deltas is not None:
            raise TreeError("collapse inside a bulk section")
        container, bit = node.parent, node.side
        if node is self.root or container is None:
            raise TreeError("cannot collapse the root region")
        if isinstance(container, MiniNode):
            raise TreeError("collapse regions must hang at plain children")
        if container.child(bit) is not node:
            raise TreeError("collapse region detached from its container")
        if atoms is None:
            harvest = collect_leaf_slots(node, min_atoms)
            if harvest is None:
                raise TreeError(
                    "subtree is not an array-representable canonical region"
                )
            atoms, dead = harvest
        region_live = [
            entry for entry in iter_subtree_entries(node)
            if entry.state == LIVE or type(entry) is ArrayLeaf
        ]
        leaf = ArrayLeaf(container, bit, list(atoms), self, dead=dead)
        container.set_child(bit, leaf)
        self._splice_collapsed(region_live, leaf)
        return leaf

    def _splice_collapsed(self, region_live: List[Entry],
                          leaf: ArrayLeaf) -> None:
        """Replace a collapsed region's cache entries (its live slots
        and sub-leaves, contiguous in document order) by the one new
        leaf entry."""
        live = self._live
        if live is None:
            return
        if not region_live:  # pragma: no cover - leaves hold >=1 atom
            self.invalidate_live_cache()
            return
        try:
            position = live.index(region_live[0])
        except ValueError:
            self.invalidate_live_cache()
            return
        count = len(region_live)
        window = live[position:position + count]
        if len(window) != count or any(
            a is not b for a, b in zip(window, region_live)
        ):
            # The cache disagrees about the region's entries: drifted.
            self.invalidate_live_cache()
            return
        swallowed = sum(1 for e in region_live if type(e) is ArrayLeaf)
        live[position:position + count] = [leaf]
        self._live_leaves += 1 - swallowed
        self._live_has_leaf = self._live_leaves > 0
        self._live_starts = None
        self.cache_splices += 1
        # The finger may anchor on a slot the collapse just replaced;
        # it rebuilds cheaply, so drop it outright (collapse is rare).
        self._finger = None

    def explode_leaf(self, leaf: ArrayLeaf,
                     around: Optional[int] = None) -> PosNode:
        """Rebuild a collapsed region as tree structure, in place
        (section 4.2.1's implicit explode: deterministic and local, so
        all replicas touching the region independently agree).

        ``around``, when given, is the slot offset (index into
        ``leaf.atoms``) the caller is about to touch: a large enough
        tombstone-free leaf then explodes *partially* — real canonical
        structure along the spine to that atom, off-spine sides kept
        collapsed as sub-leaves — bounding the work to O(edit) instead
        of O(region). The partial form is a strict subset of the full
        canonical form, so replicas stay PosID-identical either way.

        Returns the new subtree root. Counts are unchanged; the cache
        entry for the leaf is *spliced* into the replacement subtree's
        live entries without a generation bump. Safe inside a bulk
        section — remote batch paths resolve into leaves mid-batch —
        because no count deltas are involved.
        """
        container, bit = leaf.parent, leaf.side
        if container is None:
            raise TreeError("array leaf already exploded")
        if container.child(bit) is not leaf:
            raise TreeError("array leaf detached from its container")
        node = PosNode(container, bit)
        atoms = leaf.atoms
        if (
            around is not None
            and not leaf.dead
            and len(atoms) >= self.PARTIAL_EXPLODE_MIN
        ):
            build_partial_exploded(
                node, atoms, min(max(around, 0), len(atoms) - 1),
                core_atoms=self.PARTIAL_CORE_ATOMS,
                leaf_min=self.PARTIAL_LEAF_MIN,
                tree=self,
            )
            self.partial_explodes += 1
        else:
            build_exploded(node, atoms, leaf.dead)
            self.explodes += 1
        container.set_child(bit, node)
        depth = slot_depth(container) + leaf.implicit_depth
        # Fully detach the husk: clearing the tree backref (not just the
        # parent link) means a stray reference to the dead leaf cannot
        # pin the whole tree, and the husk's own death never needs the
        # cycle collector (gc.disable() deployments).
        leaf.parent = None
        leaf.tree = None
        if depth > self.height:
            self.height = depth
        self._splice_exploded(leaf, node)
        listener = self._explode_listener
        if listener is not None:
            # The owning document may already be gone (husk trees,
            # teardown order) — then there is nobody to notify.
            owner = listener()
            if owner is not None:
                owner._on_explode(node)
        return node

    def _splice_exploded(self, leaf: ArrayLeaf, node: PosNode) -> None:
        """Replace the exploded leaf's cache entry by the live entries
        of its replacement subtree (same total width, so the rest of
        the cache — and the edit finger — stays valid, even inside a
        bulk section)."""
        live = self._live
        if live is None:
            return
        try:
            position = live.index(leaf)
        except ValueError:
            # A cache that does not know one of the tree's leaves is
            # out of sync; invalidate, never go stale.
            self.invalidate_live_cache()
            return
        entries: List[Entry] = []
        leaves = 0
        for entry in iter_subtree_entries(node):
            if entry.state == LIVE:
                entries.append(entry)
            elif type(entry) is ArrayLeaf:
                entries.append(entry)
                leaves += 1
        live[position:position + 1] = entries
        self._live_leaves += leaves - 1
        self._live_has_leaf = self._live_leaves > 0
        self._live_starts = None
        self.cache_splices += 1

    def iter_entries(self) -> Iterator[Entry]:
        """All storage entries in identifier order: atom slots plus one
        entry per collapsed region."""
        return iter_subtree_entries(self.root)

    def array_leaves(self) -> List[ArrayLeaf]:
        """The collapsed regions, in document order."""
        return [
            entry for entry in iter_subtree_entries(self.root)
            if isinstance(entry, ArrayLeaf)
        ]

    def walk_atoms(self) -> List[object]:
        """Visible atoms by a fresh entry walk — never the cache, never
        exploding (the mixed-storage reference the property tests check
        reads against)."""
        atoms: List[object] = []
        append = atoms.append
        for entry in iter_subtree_entries(self.root):
            if entry.state == LIVE:
                append(entry.atom)
            elif type(entry) is ArrayLeaf:
                atoms.extend(entry.live_atoms())
        return atoms

    # -- slot state changes ------------------------------------------------------

    def set_live(self, slot: AtomSlot, atom: object) -> None:
        """Place ``atom`` in ``slot`` (must be EMPTY)."""
        if slot.state != EMPTY:
            raise TreeError(f"slot {slot_posid(slot)!r} is not empty")
        slot.state = LIVE
        slot.atom = atom
        self._adjust_counts(slot, +1, +1)
        self._note_insert(slot)

    def make_tombstone(self, slot: AtomSlot) -> None:
        """Delete the slot's atom, keeping the identifier used (SDIS)."""
        if slot.state != LIVE:
            raise MissingAtomError(f"no live atom at {slot_posid(slot)!r}")
        self._note_remove(slot)
        slot.state = TOMBSTONE
        slot.atom = None
        self._adjust_counts(slot, -1, 0)

    def discard(self, slot: AtomSlot) -> None:
        """Delete the slot's atom and free its identifier (UDIS), pruning
        any structure that becomes empty and leaf-less."""
        if slot.state != LIVE:
            raise MissingAtomError(f"no live atom at {slot_posid(slot)!r}")
        self._note_remove(slot)
        slot.state = EMPTY
        slot.atom = None
        self._adjust_counts(slot, -1, -1)
        self._prune_from(slot)

    def purge_tombstone(self, slot: AtomSlot) -> None:
        """Free a tombstoned identifier (SDIS garbage collection, once
        the delete is known causally stable — section 4.2).

        The live sequence is untouched (tombstones are invisible), so
        the snapshot cache stays valid; only a finger whose chain could
        route through the pruned structure needs care — the finger
        anchors on a *live* slot, which pruning never removes.
        """
        if slot.state != TOMBSTONE:
            raise MissingAtomError(f"no tombstone at {slot_posid(slot)!r}")
        slot.state = EMPTY
        slot.atom = None
        self._adjust_counts(slot, 0, -1)
        self._prune_from(slot)

    def _prune_from(self, slot: AtomSlot) -> None:
        """Remove now-useless structure starting at ``slot`` (3.3.1):
        empty leaf mini-nodes go immediately; position nodes with no
        content and no children follow, cascading upward."""
        if isinstance(slot, MiniNode):
            if slot.state != EMPTY or not slot.is_leaf:
                return
            host = slot.host
            host.remove_mini(slot)
            node: Optional[PosNode] = host
        else:
            node = slot
        while node is not None and node is not self.root:
            if not node.is_structurally_empty:
                return
            container = node.parent
            if container is None:
                return
            container.set_child(node.side, None)
            if isinstance(container, MiniNode):
                if container.state == EMPTY and container.is_leaf:
                    host = container.host
                    host.remove_mini(container)
                    node = host
                else:
                    return
            else:
                node = container

    # -- remote operation application ---------------------------------------------

    def apply_insert(self, posid: PosID, atom: object) -> AtomSlot:
        """Replay ``insert(posid, atom)``; idempotent for exact duplicates."""
        slot = self.materialize(posid)
        if slot.state == LIVE:
            if slot.atom == atom:
                return slot  # duplicate delivery of the same operation
            raise TreeError(f"conflicting atom already at {posid!r}")
        if slot.state == TOMBSTONE:
            # Insert happened-before any delete of the same PosID, so a
            # tombstone here means causal delivery was violated.
            raise TreeError(f"insert at tombstoned identifier {posid!r}")
        self.set_live(slot, atom)
        return slot

    def apply_delete(self, posid: PosID, keep_tombstone: bool) -> Optional[AtomSlot]:
        """Replay ``delete(posid)``; idempotent (section 2.2)."""
        slot = self.lookup(posid)
        if slot is None or slot.state != LIVE:
            # Already deleted (and possibly discarded): deletes commute
            # and are idempotent, so this is a no-op.
            return None
        if keep_tombstone:
            self.make_tombstone(slot)
        else:
            self.discard(slot)
        return slot

    # -- index navigation -----------------------------------------------------------

    @property
    def live_length(self) -> int:
        """Number of visible atoms."""
        return self.root.live_count

    @property
    def id_length(self) -> int:
        """Number of used identifiers (visible atoms + tombstones)."""
        return self.root.id_count

    def live_slot_at(self, index: int) -> AtomSlot:
        """Slot of the ``index``-th visible atom (0-based).

        O(1) off the live-snapshot cache when valid; otherwise a finger
        chain walk for nearby indexes, falling back to the O(depth)
        count descent. An index inside a collapsed region explodes it —
        the caller wants a real slot, which precedes an edit; use
        :meth:`live_atom_at` / :meth:`live_posid_at` for pure reads that
        should leave quiescent regions collapsed.
        """
        if index < 0 or index >= self.root.live_count:
            raise IndexError(f"visible index {index} out of range")
        live = self._live
        if live is not None:
            if not self._live_has_leaf:
                return live[index]
            entry, offset = self._entry_at(index)
            # Explode around the touched atom; the splice keeps the
            # cache valid, so re-resolving the index stays cheap. A
            # partial explode can leave the index inside a sub-leaf,
            # hence the loop (each pass shrinks the covering leaf).
            while isinstance(entry, ArrayLeaf) and self._live is not None:
                self.explode_leaf(entry, entry.live_to_slot(offset))
                if self._live is None:
                    break  # splice drifted: fall back to a descent
                entry, offset = self._entry_at(index)
            if self._live is not None:
                if self.finger_enabled:
                    self._finger = (index, entry)
                return entry
        if self.finger_enabled:
            slot = self._finger_seek(index)
            if slot is not None:
                return slot
        slot = self._slot_at(index, live=True)
        if self.finger_enabled:
            self._finger = (index, slot)
        return slot

    def live_atom_at(self, index: int) -> object:
        """The ``index``-th visible atom — a pure read: served straight
        from a collapsed region's array without exploding it."""
        if index < 0 or index >= self.root.live_count:
            raise IndexError(f"visible index {index} out of range")
        if self._ensure_live() is not None:
            if not self._live_has_leaf:
                return self._live[index].atom
            entry, offset = self._entry_at(index)
            if isinstance(entry, ArrayLeaf):
                return entry.live_atom(offset)
            return entry.atom
        return self.live_slot_at(index).atom

    def live_posid_at(self, index: int) -> PosID:
        """PosID of the ``index``-th visible atom — a pure read: a
        collapsed region answers from its implied canonical structure
        without exploding."""
        if index < 0 or index >= self.root.live_count:
            raise IndexError(f"visible index {index} out of range")
        if self._ensure_live() is not None and self._live_has_leaf:
            entry, offset = self._entry_at(index)
            if isinstance(entry, ArrayLeaf):
                bits = canonical_path_bits(
                    len(entry.atoms), entry.live_to_slot(offset)
                )
                return PosID._of(
                    entry.base_elements()
                    + tuple(PLAIN[bit] for bit in bits)
                )
            return slot_posid(entry)
        return slot_posid(self.live_slot_at(index))

    def live_slice(self, start: int, end: int) -> Optional[List[AtomSlot]]:
        """Slots of the visible atoms in ``[start, end)`` straight off
        the snapshot cache, or None when the cache is unavailable (the
        caller then falls back to a descent-plus-successor walk).

        Collapsed regions overlapping the range are exploded first —
        the callers (range deletes, lock checks) need real slots."""
        live = self._live
        if live is None:
            return None
        if not self._live_has_leaf:
            return live[start:end]
        # Slice semantics for degenerate ranges, exactly like the flat
        # path's live[start:end] (no explosion side effects).
        if start >= end or start >= self.root.live_count:
            return []
        while True:
            live = self._ensure_live()
            if live is None:  # pragma: no cover - cache disabled mid-loop
                return None
            if not self._live_has_leaf:
                return live[start:end]
            self._entry_at(start)  # materialize the starts index
            starts = self._live_starts
            first = bisect_right(starts, start) - 1
            overlapping: List[Tuple[ArrayLeaf, int]] = []
            position = first
            while position < len(live) and starts[position] < end:
                entry = live[position]
                if type(entry) is ArrayLeaf:
                    overlapping.append((entry, starts[position]))
                position += 1
            if not overlapping:
                # Every entry overlapping the range is a slot: with the
                # leaves all outside it, entry widths inside are 1.
                return live[first:first + (end - start)]
            # Explode every overlapping region — around the first
            # touched atom when the range only grazes the leaf, so a
            # big region clipped at one edge materializes a spine, not
            # everything. Captured starts stay correct across splices
            # (explode preserves widths). A wide overlap explodes
            # whole: a partial form would re-explode its sub-leaves
            # pass after pass.
            for leaf, leaf_start in overlapping:
                lo = max(start - leaf_start, 0)
                hi = min(end - leaf_start, leaf.live_count)
                if hi - lo <= self.PARTIAL_CORE_ATOMS:
                    self.explode_leaf(leaf, leaf.live_to_slot(lo))
                else:
                    self.explode_leaf(leaf)

    def id_slot_at(self, index: int) -> AtomSlot:
        """Slot of the ``index``-th used identifier (0-based)."""
        if index < 0 or index >= self.root.id_count:
            raise IndexError(f"identifier index {index} out of range")
        return self._slot_at(index, live=False)

    def _slot_at(self, index: int, live: bool) -> AtomSlot:
        def slot_weight(slot: AtomSlot) -> int:
            if live:
                return int(slot.state == LIVE)
            return int(slot.state != EMPTY)

        def node_weight(node: Optional[PosNode]) -> int:
            if node is None:
                return 0
            return node.live_count if live else node.id_count

        node = self.root
        while True:
            weight = node_weight(node.left)
            if index < weight:
                node = node.left
                if type(node) is ArrayLeaf:
                    # ``index`` is the offset inside the region (live
                    # descents over a dead-free leaf: live offset ==
                    # slot offset; a dead-bearing leaf always explodes
                    # fully, so the hint only picks the spine there).
                    node = node.explode(index)
                continue
            index -= weight
            weight = slot_weight(node)
            if index < weight:
                return node
            index -= weight
            descended = False
            for mini in node.minis:
                weight = node_weight(mini.left)
                if index < weight:
                    node = _as_node(mini.left)
                    descended = True
                    break
                index -= weight
                weight = slot_weight(mini)
                if index < weight:
                    return mini
                index -= weight
                weight = node_weight(mini.right)
                if index < weight:
                    node = _as_node(mini.right)
                    descended = True
                    break
                index -= weight
            if descended:
                continue
            if node.right is None:
                raise TreeError("count bookkeeping out of sync")
            node = node.right
            if type(node) is ArrayLeaf:
                node = node.explode(index)

    # -- iteration --------------------------------------------------------------------

    def iter_slots(self) -> Iterator[AtomSlot]:
        """All slots in identifier order (including EMPTY ones)."""
        return self.root.iter_slots()

    def iter_live_slots(self) -> Iterator[AtomSlot]:
        """Visible atom slots in document order — always a *fresh* tree
        walk, never the cache (the property tests use it as the
        reference the snapshot cache is checked against)."""
        return (s for s in self.iter_slots() if slot_is_live(s))

    def live_slots(self) -> List[AtomSlot]:
        """Visible atom slots in document order, off the snapshot cache
        (amortized O(n) copy; rebuilds the cache when invalidated).
        Promises real slots, so collapsed regions are exploded first —
        all of them, then one rebuild — whether or not the cache is
        enabled."""
        for leaf in self.array_leaves():
            self.explode_leaf(leaf)
        live = self._ensure_live()
        if live is not None:
            return list(live)
        return [s for s in self.iter_slots() if slot_is_live(s)]

    def atoms(self) -> List[object]:
        """The visible document content as a list of atoms (a collapsed
        region contributes its array in one ``extend``)."""
        live = self._ensure_live()
        if live is not None:
            if not self._live_has_leaf:
                return [slot.atom for slot in live]
            atoms: List[object] = []
            for entry in live:
                if isinstance(entry, ArrayLeaf):
                    atoms.extend(entry.live_atoms())
                else:
                    atoms.append(entry.atom)
            return atoms
        return self.walk_atoms()

    def posids(self) -> List[PosID]:
        """PosIDs of all visible atoms, in document order (collapsed
        regions answer from their implied canonical paths)."""
        live = self._ensure_live()
        if live is not None and not self._live_has_leaf:
            return slot_posids(live)
        entries = live if live is not None else iter_subtree_entries(self.root)
        memo = PathMemo()
        posids: List[PosID] = []
        for entry in entries:
            if isinstance(entry, ArrayLeaf):
                posids.extend(entry.posids())
            elif entry.state == LIVE:
                posids.append(memo.posid(entry))
        return posids

    def first_slot(self) -> Optional[AtomSlot]:
        """The first slot in identifier order, if any structure exists."""
        return _leftmost_slot(self.root)

    def next_id_holder(self, slot: Optional[AtomSlot]) -> Optional[AtomSlot]:
        """First used-identifier slot strictly after ``slot`` (or from the
        start of the document when ``slot`` is None)."""
        current = _leftmost_slot(self.root) if slot is None else successor_slot(slot)
        while current is not None and not slot_is_id_holder(current):
            current = successor_slot(current)
        return current

    def gap_slots(self, after: Optional[AtomSlot],
                  before: Optional[AtomSlot]) -> Iterator[AtomSlot]:
        """Slots strictly between ``after`` and ``before`` in infix order
        (None bounds mean document start / end). The caller guarantees
        ``after`` precedes ``before``; iteration stops at ``before``."""
        current = (
            _leftmost_slot(self.root) if after is None else successor_slot(after)
        )
        while current is not None and current is not before:
            yield current
            current = successor_slot(current)

    # -- integrity ---------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate counts, ordering, parent links, slot states and
        array-leaf boundaries.

        Raises :class:`TreeError` on the first violation. Used by tests
        and by the failure-injection harness; not called on hot paths.
        """
        cached_live = self._live
        if cached_live is not None:
            fresh: List[Entry] = [
                entry for entry in iter_subtree_entries(self.root)
                if isinstance(entry, ArrayLeaf) or entry.state == LIVE
            ]
            if len(fresh) != len(cached_live) or any(
                a is not b for a, b in zip(fresh, cached_live)
            ):
                raise TreeError("live-snapshot cache out of sync")
        before = (self.root.live_count, self.root.id_count)
        live, ids = self.recount_subtree(self.root)
        if (live, ids) != before:
            raise TreeError("aggregate counts inconsistent")  # pragma: no cover
        # recount_subtree invalidated the cache defensively; it was just
        # verified against a fresh walk, so reinstate it (widths
        # recomputed — the invalidation zeroed them).
        self._live = cached_live
        if cached_live is not None:
            leaves = 0
            total = 0
            for entry in cached_live:
                if isinstance(entry, ArrayLeaf):
                    leaves += 1
                    total += entry.live_count
                else:
                    total += 1
            self._live_has_leaf = leaves > 0
            self._live_leaves = leaves
            self._live_total = total
            if total != self.root.live_count:
                raise TreeError("live-snapshot cache width out of sync")
        previous: Optional[PosID] = None
        memo = PathMemo()
        for entry in iter_subtree_entries(self.root):
            if isinstance(entry, ArrayLeaf):
                previous = self._check_leaf(entry, previous)
                continue
            slot = entry
            host = slot_host(slot)
            node: Optional[PosNode] = host
            hops = 0
            while node is not None and node.parent is not None:
                container = node.parent
                if container.child(node.side) is not node:
                    raise TreeError("broken parent link")
                node = (
                    container.host
                    if isinstance(container, MiniNode)
                    else container
                )
                hops += 1
                if hops > 100000:
                    raise TreeError("parent chain does not terminate")
            if node is not self.root:
                raise TreeError("slot not reachable from the root")
            if slot.state == LIVE and host.plain_state == LIVE and (
                isinstance(slot, MiniNode)
            ):
                raise TreeError(
                    "live plain atom coexists with live mini-node "
                    f"at {slot_posid(slot)!r}"
                )
            if slot_is_id_holder(slot):
                posid = memo.posid(slot)
                if self.lookup(posid) is not slot:
                    raise TreeError(f"posid round-trip failed for {posid!r}")
                if previous is not None and not previous < posid:
                    raise TreeError(
                        f"identifier order violated: {previous!r} !< {posid!r}"
                    )
                previous = posid

    def _check_leaf(self, leaf: ArrayLeaf,
                    previous: Optional[PosID]) -> PosID:
        """Validate one collapsed region: attachment, ownership, and the
        identifier order of its implied canonical region against its
        neighbours. Returns the region's last PosID."""
        if not leaf.atoms:
            raise TreeError("empty array leaf")  # pragma: no cover
        if leaf.dead < 0 or leaf.dead >> len(leaf.atoms):
            raise TreeError("dead bitmap wider than the atom array")
        if leaf.live_count != len(leaf.atoms) - leaf.dead.bit_count():
            raise TreeError("array-leaf live count out of sync")
        if leaf.live_count < 1:
            raise TreeError("array leaf with no visible atoms")
        if leaf.tree is not self:
            raise TreeError("array leaf owned by a different tree")
        container = leaf.parent
        if container is None:
            raise TreeError("detached array leaf still reachable")
        if isinstance(container, MiniNode):
            raise TreeError("array leaf attached under a mini-node")
        if container.child(leaf.side) is not leaf:
            raise TreeError("broken parent link at array leaf")
        region = leaf.id_posids()
        if any(not a < b for a, b in zip(region, region[1:])):
            raise TreeError("array-leaf region out of order")  # pragma: no cover
        if previous is not None and not previous < region[0]:
            raise TreeError(
                f"identifier order violated at array leaf: "
                f"{previous!r} !< {region[0]!r}"
            )
        return region[-1]
