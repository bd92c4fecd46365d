"""The Treedoc tree: storage, lookup, counts and infix navigation.

This module implements the mutable tree that backs a Treedoc replica:
materializing identifier paths into nodes, applying remote inserts and
deletes, tombstone bookkeeping (SDIS) or discard-and-prune (UDIS),
index-to-slot descent via cached counts, and O(depth) infix successor
walks over atom slots (used by the tombstone-aware neighbour search,
range deletes and the allocator's empty-slot reuse).

Read path (DESIGN.md section 6)
-------------------------------

Every position node carries the ``live_count`` / ``id_count`` of its
subtree, so any visible or identifier index resolves by one counted
descent from the root (:meth:`TreedocTree.locate`): O(depth), whatever
the document size. Whole-document reads (``atoms()``, ``posids()``) are
fresh walks; the consumers that repeat them (text, editor lines,
replica snapshots) cache the result against a monotonically increasing
*generation* counter, bumped on every visible-content change.

Live mixed storage (DESIGN.md section 7, paper section 4.2)
-----------------------------------------------------------

Quiescent subtrees in canonical exploded form may be *collapsed* into
:class:`repro.core.node.ArrayLeaf` children — a bare atom list with one
parent link and zero per-atom metadata (:meth:`collapse_subtree`). A
descent that ends inside a leaf returns the leaf and the offset, so
pure reads (``live_atom_at``, ``live_posid_at``, ``atoms()``,
``posids()``) answer from the array. Any operation that needs real
structure inside a region — a remote path resolving into it
(``materialize`` / ``lookup``), a slot lookup, a successor/predecessor
walk, an allocation landing next to it — *explodes on touch*: the
canonical form is rebuilt deterministically and locally
(:meth:`explode_leaf`), so replicas never ship an explode operation and
a collapsing replica stays bit-identical in identifier space with a
non-collapsing one. Collapse and explode preserve the subtree counts
exactly (a leaf reports its visible atoms and used identifiers as its
aggregates), so neither touches ancestor aggregates or the generation
counter.

Large leaves explode *partially* (DESIGN.md section 12): the spine to
the touched atom is materialized as real canonical structure while the
off-spine sides stay collapsed as sub-leaves, bounding the explode to
O(edit) instead of O(region). The split follows the canonical
``_canonical_split`` arithmetic at every level, so the partial form is
a strict subset of the full canonical form and replicas that exploded
fully remain PosID-identical with replicas that exploded partially.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.disambiguator import Disambiguator
from repro.core.node import (
    DEAD_ATOM,
    LIVE,
    NO_ATOM,
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
    subtree_atoms,
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


def _mini_index(host: PosNode, mini: MiniNode) -> int:
    """Position of ``mini`` within its host's sorted mini list."""
    for index, candidate in enumerate(host.mini_nodes()):
        if candidate is mini:
            return index
    raise TreeError("mini-node not attached to its host")


def _after_mini_region(host: PosNode, index: int) -> Optional[AtomSlot]:
    """Slot following the region of ``host.mini_nodes()[index]``,
    within or above ``host``."""
    minis = host.mini_nodes()
    if index + 1 < len(minis):
        return _mini_region_first(minis[index + 1])
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
        return _mini_region_first(node.mini_nodes()[0])
    child = node.right
    if child is not None:
        if type(child) is ArrayLeaf:
            child = child.explode(0)
        return _leftmost_slot(child)
    return _up_successor(node)


class TreedocTree:
    """The extended binary tree backing one Treedoc replica."""

    #: Always 0: indexes resolve by a counted descent, so there is no
    #: live-entry cache to drop or splice. Kept for benchmark drivers
    #: that read these counters from every tree.
    cache_drops = 0
    cache_splices = 0

    def __init__(self) -> None:
        self.root = PosNode()
        #: Deepest path length materialized so far (drives the balancing
        #: growth factor of section 4.1).
        self.height = 0
        #: When a bulk section is open, per-host (live, id) count deltas
        #: accumulate here instead of walking the spine per slot change;
        #: entries hold the node reference so ``id()`` keys stay unique.
        self._bulk_deltas: Optional[Dict[int, List]] = None
        #: Bumped on every visible-content change; downstream layers key
        #: derived caches (text, lines, snapshots) on it.
        self._generation = 0
        #: Plain ``weakref.ref`` to the owning document, whose
        #: ``_on_explode(node)`` is called after every leaf explosion
        #: with the new subtree root (it feeds its re-collapse
        #: hysteresis and incremental sweep queue from it). A plain
        #: weakref is gc-opaque, so the tree's reachability graph never
        #: includes its owner.
        self._explode_listener = None
        #: Storage-health counters (surfaced by ``measure_tree`` and the
        #: daemon's admin status): region explosions, full and partial.
        self.explodes = 0
        self.partial_explodes = 0

    @property
    def generation(self) -> int:
        """Monotonic counter of visible-content changes."""
        return self._generation

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

    # -- rank ------------------------------------------------------------------------

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
            for mini in host.mini_nodes():
                if mini is slot:
                    break
                index += slot_is_live(mini)
                if mini.left is not None:
                    index += mini.left.live_count
                if mini.right is not None:
                    index += mini.right.live_count
            index += slot_is_live(host)
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
                    index += slot_is_live(mini)
                    if mini.left is not None:
                        index += mini.left.live_count
                for earlier in host.mini_nodes():
                    if earlier is mini:
                        break
                    index += slot_is_live(earlier)
                    if earlier.left is not None:
                        index += earlier.left.live_count
                    if earlier.right is not None:
                        index += earlier.right.live_count
                index += slot_is_live(host)
                if host.left is not None:
                    index += host.left.live_count
                node = host
            else:
                if bit == RIGHT:
                    atom = container.atom
                    if atom is not NO_ATOM and atom is not DEAD_ATOM:
                        index += 1
                    if container.left is not None:
                        index += container.left.live_count
                    if container.minis:
                        for mini in container.mini_nodes():
                            index += slot_is_live(mini)
                            if mini.left is not None:
                                index += mini.left.live_count
                            if mini.right is not None:
                                index += mini.right.live_count
                node = container
        return index

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
        # Structural surgery: derived caches (text, lines, snapshots)
        # must refresh.
        self._generation += 1
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
        # Children before parents: the reversed pre-order of the node
        # walk. Array-leaf children are their own ground truth — counts
        # maintained by construction, dead bitmap included — and are
        # not descended.
        for current in reversed(list(node.iter_nodes())):
            atom = current.atom
            if atom is NO_ATOM:
                live = ids = 0
            else:
                ids = 1
                live = 0 if atom is DEAD_ATOM else 1
            if current.minis:
                for mini in current.mini_nodes():
                    atom = mini.atom
                    if atom is not NO_ATOM:
                        ids += 1
                        if atom is not DEAD_ATOM:
                            live += 1
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
        propagation happens, and the generation is not bumped, since
        the visible content is untouched.
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
        leaf = ArrayLeaf(container, bit, list(atoms), self, dead=dead)
        container.set_child(bit, leaf)
        return leaf

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

        Returns the new subtree root. Counts are unchanged and the
        generation is not bumped. Safe inside a bulk section — remote
        batch paths resolve into leaves mid-batch — because no count
        deltas are involved.
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
        listener = self._explode_listener
        if listener is not None:
            # The owning document may already be gone (husk trees,
            # teardown order) — then there is nobody to notify.
            owner = listener()
            if owner is not None:
                owner._on_explode(node)
        return node

    def iter_entries(self) -> Iterator[Entry]:
        """All storage entries in identifier order: atom slots plus one
        entry per collapsed region."""
        return iter_subtree_entries(self.root)

    def storage_counts(self) -> Dict[str, int]:
        """Resident storage by representation, by one entry walk:
        position nodes, mini-nodes, array leaves, and the atom slots
        the leaves hold (dead slots included)."""
        nodes = minis = leaves = leaf_atoms = 0
        for entry in iter_subtree_entries(self.root):
            kind = type(entry)
            if kind is PosNode:
                nodes += 1
            elif kind is MiniNode:
                minis += 1
            else:
                leaves += 1
                leaf_atoms += len(entry.atoms)
        return {"position_nodes": nodes, "mini_nodes": minis,
                "array_leaves": leaves, "leaf_atoms": leaf_atoms}

    def array_leaves(self) -> List[ArrayLeaf]:
        """The collapsed regions, in document order."""
        return [
            entry for entry in iter_subtree_entries(self.root)
            if isinstance(entry, ArrayLeaf)
        ]

    # -- slot state changes ------------------------------------------------------

    def set_live(self, slot: AtomSlot, atom: object) -> None:
        """Place ``atom`` in ``slot`` (must be EMPTY)."""
        if slot.atom is not NO_ATOM:
            raise TreeError(f"slot {slot_posid(slot)!r} is not empty")
        slot.atom = atom
        self._adjust_counts(slot, +1, +1)
        self._generation += 1

    def make_tombstone(self, slot: AtomSlot) -> None:
        """Delete the slot's atom, keeping the identifier used (SDIS)."""
        if not slot_is_live(slot):
            raise MissingAtomError(f"no live atom at {slot_posid(slot)!r}")
        slot.atom = DEAD_ATOM
        self._adjust_counts(slot, -1, 0)
        self._generation += 1

    def discard(self, slot: AtomSlot) -> None:
        """Delete the slot's atom and free its identifier (UDIS), pruning
        any structure that becomes empty and leaf-less."""
        if not slot_is_live(slot):
            raise MissingAtomError(f"no live atom at {slot_posid(slot)!r}")
        slot.atom = NO_ATOM
        self._adjust_counts(slot, -1, -1)
        self._generation += 1
        self._prune_from(slot)

    def purge_tombstone(self, slot: AtomSlot) -> None:
        """Free a tombstoned identifier (SDIS garbage collection, once
        the delete is known causally stable — section 4.2). The
        visible content is untouched (tombstones are invisible), so the
        generation is not bumped.
        """
        if slot.atom is not DEAD_ATOM:
            raise MissingAtomError(f"no tombstone at {slot_posid(slot)!r}")
        slot.atom = NO_ATOM
        self._adjust_counts(slot, 0, -1)
        self._prune_from(slot)

    def revive(self, slot: AtomSlot, atom: object) -> None:
        """Purge the tombstone in ``slot`` and place ``atom`` there: a
        re-minted identifier (section 3.3.2). The same end state as
        :meth:`purge_tombstone` then a fresh insert, without pruning
        structure only to rebuild it."""
        if slot.atom is not DEAD_ATOM:
            raise MissingAtomError(f"no tombstone at {slot_posid(slot)!r}")
        slot.atom = NO_ATOM
        self._adjust_counts(slot, 0, -1)
        self.set_live(slot, atom)

    def _prune_from(self, slot: AtomSlot) -> None:
        """Remove now-useless structure starting at ``slot`` (3.3.1):
        empty leaf mini-nodes go immediately; position nodes with no
        content and no children follow, cascading upward."""
        if isinstance(slot, MiniNode):
            if slot.atom is not NO_ATOM or not slot.is_leaf:
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
                if container.atom is NO_ATOM and container.is_leaf:
                    host = container.host
                    host.remove_mini(container)
                    node = host
                else:
                    return
            else:
                node = container

    # -- remote operation application ---------------------------------------------

    def apply_insert(self, posid: PosID, atom: object,
                     remint: Optional[Callable[[PosID], bool]] = None
                     ) -> AtomSlot:
        """Replay ``insert(posid, atom)``; idempotent for exact duplicates.

        An insert landing on a tombstone is an SDIS re-mint (section
        3.3.2) when ``remint(posid)`` says so: its origin purged the
        identifier as stable and minted it again. The tombstone is then
        purged and the insert applied in its place."""
        slot = self.materialize(posid)
        held = slot.atom
        if held is NO_ATOM:
            self.set_live(slot, atom)
            return slot
        if held is DEAD_ATOM:
            if remint is None or not remint(posid):
                # Insert happened-before any delete of the same PosID,
                # so a tombstone here means causal delivery was violated.
                raise TreeError(f"insert at tombstoned identifier {posid!r}")
            self.revive(slot, atom)
            return slot
        if held == atom:
            return slot  # duplicate delivery of the same operation
        raise TreeError(f"conflicting atom already at {posid!r}")

    def apply_delete(self, posid: PosID, keep_tombstone: bool) -> Optional[AtomSlot]:
        """Replay ``delete(posid)``; idempotent (section 2.2)."""
        slot = self.lookup(posid)
        if slot is None or not slot_is_live(slot):
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

    def locate(self, index: int, live: bool = True,
               node: Optional[PosNode] = None) -> Tuple[Entry, int]:
        """The storage entry holding the ``index``-th visible atom (or,
        with ``live`` False, used identifier) and the offset inside it:
        0 for an atom slot, the visible (or slot) offset for an
        :class:`ArrayLeaf`.

        One counted descent over the subtree aggregates, from ``node``
        (default: the root) — O(depth), whatever the document size. It
        stops at a collapsed region without exploding it, so pure reads
        answer from the array. The index must be in range.
        """
        if node is None:
            node = self.root
        # A slot counts unless its atom field is one of these marks.
        empty, skipped = NO_ATOM, (DEAD_ATOM if live else NO_ATOM)
        while True:
            target = node.left
            if target is not None:
                weight = target.live_count if live else target.id_count
                if index < weight:
                    if type(target) is ArrayLeaf:
                        return target, index
                    node = target
                    continue
                index -= weight
            atom = node.atom
            if atom is not empty and atom is not skipped:
                if not index:
                    return node, 0
                index -= 1
            target = node.right
            # mini_nodes() inline: this step runs once per level, most
            # nodes hold no mini, and nearly every other one a bare one.
            minis = node.minis
            if minis:
                for mini in (minis,) if type(minis) is MiniNode else minis:
                    child = mini.left
                    if child is not None:
                        weight = child.live_count if live else child.id_count
                        if index < weight:
                            target = child
                            break
                        index -= weight
                    atom = mini.atom
                    if atom is not empty and atom is not skipped:
                        if not index:
                            return mini, 0
                        index -= 1
                    child = mini.right
                    if child is not None:
                        weight = child.live_count if live else child.id_count
                        if index < weight:
                            target = child
                            break
                        index -= weight
            if target is None:
                raise TreeError("count bookkeeping out of sync")
            if type(target) is ArrayLeaf:
                return target, index
            node = target

    def _slot_at(self, index: int, live: bool) -> AtomSlot:
        """:meth:`locate`, exploding a collapsed region the index lands
        in — around the touched atom. A partial explode can leave it
        inside a sub-leaf, so the descent resumes from the new subtree
        (same counts) until it reaches a slot."""
        entry, offset = self.locate(index, live)
        while type(entry) is ArrayLeaf:
            around = entry.live_to_slot(offset) if live else offset
            entry, offset = self.locate(
                offset, live, self.explode_leaf(entry, around))
        return entry

    def live_slot_at(self, index: int) -> AtomSlot:
        """Slot of the ``index``-th visible atom (0-based), by one counted
        descent. An index inside a collapsed region explodes it — the
        caller wants a real slot, which precedes an edit; use
        :meth:`live_atom_at` / :meth:`live_posid_at` for pure reads that
        should leave quiescent regions collapsed.
        """
        if index < 0 or index >= self.root.live_count:
            raise IndexError(f"visible index {index} out of range")
        return self._slot_at(index, True)

    def live_atom_at(self, index: int) -> object:
        """The ``index``-th visible atom — a pure read: served straight
        from a collapsed region's array without exploding it."""
        if index < 0 or index >= self.root.live_count:
            raise IndexError(f"visible index {index} out of range")
        entry, offset = self.locate(index)
        if type(entry) is ArrayLeaf:
            return entry.live_atom(offset)
        return entry.atom

    def live_posid_at(self, index: int) -> PosID:
        """PosID of the ``index``-th visible atom — a pure read: a
        collapsed region answers from its implied canonical structure
        without exploding."""
        if index < 0 or index >= self.root.live_count:
            raise IndexError(f"visible index {index} out of range")
        entry, offset = self.locate(index)
        if type(entry) is ArrayLeaf:
            bits = canonical_path_bits(
                len(entry.atoms), entry.live_to_slot(offset)
            )
            return PosID._of(
                entry.base_elements() + tuple(PLAIN[bit] for bit in bits)
            )
        return slot_posid(entry)

    def live_slice(self, start: int, end: int) -> List[AtomSlot]:
        """Slots of the visible atoms in ``[start, end)``, ``end``
        clamped to the length: a descent to ``start`` plus successor
        steps. Collapsed regions the range overlaps are exploded — the
        callers (range deletes, lock checks) need real slots."""
        end = min(end, self.root.live_count)
        if start >= end:
            return []
        slot: Optional[AtomSlot] = self.live_slot_at(start)
        slots = [slot]
        for _ in range(end - start - 1):
            slot = successor_slot(slot)
            while slot is not None and not slot_is_live(slot):
                slot = successor_slot(slot)
            if slot is None:
                raise TreeError("live count out of sync with slot walk")
            slots.append(slot)
        return slots

    def id_slot_at(self, index: int) -> AtomSlot:
        """Slot of the ``index``-th used identifier (0-based)."""
        if index < 0 or index >= self.root.id_count:
            raise IndexError(f"identifier index {index} out of range")
        return self._slot_at(index, False)

    # -- iteration --------------------------------------------------------------------

    def iter_slots(self) -> Iterator[AtomSlot]:
        """All slots in identifier order (including EMPTY ones)."""
        return self.root.iter_slots()

    def iter_live_slots(self) -> Iterator[AtomSlot]:
        """Visible atom slots in document order by a plain slot walk
        (the property tests use it as the reference the index lookups
        are checked against)."""
        return (s for s in self.iter_slots() if slot_is_live(s))

    def live_slots(self) -> List[AtomSlot]:
        """Visible atom slots in document order. Promises real slots,
        so collapsed regions are exploded first."""
        for leaf in self.array_leaves():
            self.explode_leaf(leaf)
        return list(self.iter_live_slots())

    def atoms(self) -> List[object]:
        """The visible document content as a list of atoms
        (:func:`~repro.core.node.subtree_atoms` of the root)."""
        return subtree_atoms(self.root)

    def posids(self) -> List[PosID]:
        """PosIDs of all visible atoms, in document order, by one entry
        walk (collapsed regions answer from their implied canonical
        paths, without exploding)."""
        memo = PathMemo()
        posids: List[PosID] = []
        for entry in iter_subtree_entries(self.root):
            if type(entry) is ArrayLeaf:
                posids.extend(entry.posids())
            elif slot_is_live(entry):
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
        before = (self.root.live_count, self.root.id_count)
        live, ids = self.recount_subtree(self.root)
        if (live, ids) != before:
            raise TreeError("aggregate counts inconsistent")  # pragma: no cover
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
            if slot.state == LIVE and host.state == LIVE and (
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
