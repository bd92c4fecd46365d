"""PosID allocation: Algorithm 1 and the balancing strategy (section 4.1).

The allocator answers one question: *where does a fresh atom go between
two adjacent used identifiers?* It operates structurally on the tree, so
the four rules of Algorithm 1 become placements:

- rule 4 (``p /+ f``): a new mini-node under the left plain child of
  ``f``'s position node;
- rule 5 (``f /+ p``) and rule 7 (unrelated nodes): a new mini-node under
  the right plain child of ``p``'s position node (this is the paper's
  "strip the disambiguator" rewriting — the path routes through the
  major node);
- rule 6 (``p`` and ``f`` mini-siblings, or ``f`` under a greater
  mini-sibling of ``p``): a new mini-node under the right child *of the
  mini-node* ``p`` itself.

On top of Algorithm 1 the allocator implements both optimizations of
section 4.1:

- **log-growth**: appending at the document end grows the tree by
  ``ceil(log2(h)) + 1`` levels at once and places the atom at the
  smallest identifier of the grown subtree; later inserts consume the
  empty positions (Figure 5);
- **empty-slot reuse**: before creating structure, the gap between the
  two neighbours is scanned for an existing empty slot (in infix order,
  matching Figure 5's numbering), which also re-uses positions freed by
  UDIS discards and left over by explode;
- **run grouping** (the variant evaluated in section 5.1): a burst of
  consecutive inserts is laid out in one minimal complete subtree.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.disambiguator import Disambiguator
from repro.core.node import NO_ATOM, AtomSlot, MiniNode, PosNode, slot_host
from repro.core.path import LEFT, RIGHT
from repro.core.tree import TreedocTree, _as_node
from repro.errors import AllocationError

#: Upper bound on the number of gap slots inspected when looking for an
#: empty position to reuse. Gaps are tiny in practice (the inside of one
#: grown subtree); the cap keeps worst-case allocation O(1)-ish.
GAP_SCAN_LIMIT = 256


def _is_within_subtree(slot: AtomSlot, ancestor: PosNode) -> bool:
    """True when ``slot`` lies in the subtree rooted at ``ancestor``."""
    node: Optional[PosNode] = slot_host(slot)
    while node is not None:
        if node is ancestor:
            return True
        container = node.parent
        if container is None:
            return False
        node = container.host if isinstance(container, MiniNode) else container
    return False


def _greater_mini_sibling_above(slot: AtomSlot, p: MiniNode) -> bool:
    """Rule 6, second clause: does ``slot`` sit under a mini-sibling of
    ``p`` with a greater disambiguator?"""
    p_key = p.dis.key
    node: Optional[PosNode] = slot_host(slot)
    while node is not None:
        container = node.parent
        if container is None:
            return False
        if isinstance(container, MiniNode):
            if container.host is p.host and container.dis.key > p_key:
                return True
            node = container.host
        else:
            node = container
    return False


class Allocator:
    """Fresh-PosID allocation for one Treedoc tree.

    ``balanced`` toggles the section 4.1 growth heuristic; with it off,
    the allocator is exactly the naive Algorithm 1 (used by the
    no-balancing rows of Tables 3 and 4).
    """

    def __init__(self, tree: TreedocTree, balanced: bool = True) -> None:
        self.tree = tree
        self.balanced = balanced

    # -- public API -------------------------------------------------------------

    def place_between(
        self,
        p_slot: Optional[AtomSlot],
        f_slot: Optional[AtomSlot],
        dis: Disambiguator,
    ) -> AtomSlot:
        """Return a fresh EMPTY slot ordered strictly between the two
        adjacent used identifiers (None = document start / end).

        The returned slot is a mini-node tagged ``dis``; the caller fills
        it with :meth:`TreedocTree.set_live`.
        """
        reused = self._reuse_empty_slot(p_slot, f_slot)
        if reused is not None:
            # The atom becomes a mini-node of the empty position, so two
            # sites concurrently reusing the same position stay distinct
            # and ordered by disambiguator.
            return reused.get_or_create_mini(dis)
        if f_slot is not None and not self._prefers_after(p_slot, f_slot):
            return self._place_before(f_slot, dis)
        if p_slot is not None:
            return self._place_after(p_slot, f_slot, dis)
        # Empty identifier space: open the document at the root's right
        # child, giving the first atom the identifier [(1:d)].
        return self._create_chain(self.tree.root, RIGHT, dis, append=f_slot is None)

    def place_run(
        self,
        p_slot: Optional[AtomSlot],
        f_slot: Optional[AtomSlot],
        dises: Sequence[Disambiguator],
    ) -> List[AtomSlot]:
        """Allocate slots for a burst of consecutive atoms.

        With balancing enabled this is the section 5.1 variant: the run
        is laid out in a minimal complete subtree (depth
        ``ceil(log2(n+1))``), so a revision's paste of *n* lines costs
        paths of length ``O(log n)`` instead of *n*. Without balancing
        each atom is placed one by one.
        """
        if not dises:
            return []
        if not self.balanced or len(dises) == 1:
            return self._place_sequentially(p_slot, f_slot, dises)
        anchor = self._run_anchor(p_slot, f_slot)
        if anchor is None:
            return self._place_sequentially(p_slot, f_slot, dises)
        container, bit = anchor
        depth = max(1, math.ceil(math.log2(len(dises) + 1)))
        root = self._build_complete_subtree(container, bit, depth)
        nodes = list(root.iter_slots())  # fresh: position nodes only
        slots: List[AtomSlot] = []
        for dis, node in zip(dises, nodes):
            slots.append(node.get_or_create_mini(dis))
        remaining = list(dises[len(nodes):])
        if remaining:
            # The subtree was sized for the run, so this only happens if
            # sizing and capacity disagree; fall back to one-by-one.
            previous: Optional[AtomSlot] = slots[-1] if slots else p_slot
            slots.extend(self._place_sequentially(previous, f_slot, remaining))
        return slots

    # -- internals ---------------------------------------------------------------

    def _place_sequentially(
        self,
        p_slot: Optional[AtomSlot],
        f_slot: Optional[AtomSlot],
        dises: Sequence[Disambiguator],
    ) -> List[AtomSlot]:
        slots: List[AtomSlot] = []
        previous = p_slot
        for dis in dises:
            slot = self.place_between(previous, f_slot, dis)
            # A slot only becomes the left neighbour of the next one once
            # it holds an identifier; the Treedoc facade fills it right
            # away, but mark it used defensively for the search below.
            slots.append(slot)
            previous = slot
        return slots

    def _reuse_empty_slot(
        self, p_slot: Optional[AtomSlot], f_slot: Optional[AtomSlot]
    ) -> Optional[PosNode]:
        """First empty position node in the gap, in infix order
        (Figure 5's numbering). Empty *mini-node* identifiers are never
        re-used: under SDIS the same (position, site) pair could be
        minted twice (the scenario of section 3.3.2)."""
        for steps, slot in enumerate(self.tree.gap_slots(p_slot, f_slot)):
            if steps >= GAP_SCAN_LIMIT:
                return None
            if (
                slot.atom is NO_ATOM
                and not isinstance(slot, MiniNode)
                and not slot.minis
                and slot is not self.tree.root
            ):
                # The node must carry no mini-nodes: a fresh mini would
                # sort among existing ones by disambiguator — possibly
                # outside the gap — and under SDIS could even re-mint a
                # tombstone's identifier (the section 3.3.2 scenario).
                # (A mini at the root is also impossible: a zero-length
                # path cannot carry a disambiguator.)
                return slot
        return None

    def _prefers_after(self, p_slot: Optional[AtomSlot], f_slot: AtomSlot) -> bool:
        """Decide between placing before ``f`` and after ``p``.

        Placing before ``f`` is only sound when ``p`` does not itself lie
        in the left region of ``f``'s position node (rules 5-7 territory).
        """
        if p_slot is None:
            return False
        if _is_within_subtree(p_slot, slot_host(f_slot)):
            return True
        return False

    def _place_before(self, f_slot: AtomSlot, dis: Disambiguator) -> AtomSlot:
        """Rule 4: new mini-node under the left plain child of ``f``'s
        position node. Rule 6's second clause takes precedence when it
        applies (handled by the caller via `_prefers_after` being False
        only for unrelated ``p``)."""
        host = slot_host(f_slot)
        if host.left is not None:
            # The gap scan found no empty slot, yet the left child
            # exists; descend its right spine to a fresh creation point.
            node = _as_node(host.left)
            while node.right is not None:
                node = _as_node(node.right)
            return self._create_chain(node, RIGHT, dis, append=False)
        return self._create_chain(host, LEFT, dis, append=False)

    def _place_after(
        self,
        p_slot: AtomSlot,
        f_slot: Optional[AtomSlot],
        dis: Disambiguator,
    ) -> AtomSlot:
        appending = f_slot is None
        if isinstance(p_slot, MiniNode):
            if f_slot is not None and (
                slot_host(f_slot) is p_slot.host
                or _greater_mini_sibling_above(f_slot, p_slot)
            ):
                # Rule 6: a direct descendant of the mini-node itself.
                if p_slot.right is not None:
                    node = _as_node(p_slot.right)
                    while node.left is not None:
                        node = _as_node(node.left)
                    return self._create_chain(node, LEFT, dis, append=False)
                return self._create_chain(p_slot, RIGHT, dis, append=False)
            # Rules 5 and 7: strip the disambiguator — a child of the
            # major node, i.e. the position node's plain right child.
            host = p_slot.host
        else:
            host = p_slot
        if host.right is not None:
            node = _as_node(host.right)
            while node.left is not None:
                node = _as_node(node.left)
            return self._create_chain(node, LEFT, dis, append=appending)
        return self._create_chain(host, RIGHT, dis, append=appending)

    #: Cap on growth depth: a growth step materializes 2^k - 1 empty
    #: positions, so unbounded k would make single appends allocate
    #: large subtrees for very tall trees.
    MAX_GROWTH_LEVELS = 8

    def _growth_levels(self) -> int:
        """How many levels to grow on an append: ``ceil(log2(h)) + 1``."""
        height = max(1, self.tree.height)
        if height == 1:
            return 1
        return min(self.MAX_GROWTH_LEVELS, math.ceil(math.log2(height)) + 1)

    def _create_chain(
        self,
        container,
        bit: int,
        dis: Disambiguator,
        append: bool,
    ) -> AtomSlot:
        """Create a new position node at ``(container, bit)``; when
        balancing an append, grow a whole *complete* subtree of
        ``growth`` levels and use its smallest (leftmost) position, as
        in Figure 5 — subsequent appends then consume the grown tree's
        empty positions in infix order via the gap scan."""
        if container.child(bit) is not None:
            raise AllocationError("creation point already occupied")
        if append and self.balanced:
            depth = self._growth_levels()
            root = self._build_complete_subtree(container, bit, depth)
            node = root
            while node.left is not None:
                node = node.left
        else:
            node = PosNode(container, bit)
            container.set_child(bit, node)
            depth = self._node_depth(node)
            if depth > self.tree.height:
                self.tree.height = depth
        return node.get_or_create_mini(dis)

    def _node_depth(self, node: PosNode) -> int:
        depth = 0
        current: Optional[PosNode] = node
        while current is not None and current.parent is not None:
            depth += 1
            container = current.parent
            current = (
                container.host if isinstance(container, MiniNode) else container
            )
        return depth

    def _run_anchor(
        self, p_slot: Optional[AtomSlot], f_slot: Optional[AtomSlot]
    ) -> Optional[Tuple[object, int]]:
        """Creation point ``(container, bit)`` for a run subtree, or None
        when no fresh creation point exists (then fall back to one-by-one
        placement, which can reuse empty slots)."""
        if f_slot is not None and not self._prefers_after(p_slot, f_slot):
            host = slot_host(f_slot)
            if host.left is None:
                return (host, LEFT)
            return None
        if p_slot is None:
            if self.tree.root.right is None and self.tree.root.left is None:
                return (self.tree.root, RIGHT)
            return None
        if isinstance(p_slot, MiniNode):
            if f_slot is not None and (
                slot_host(f_slot) is p_slot.host
                or _greater_mini_sibling_above(f_slot, p_slot)
            ):
                if p_slot.right is None:
                    return (p_slot, RIGHT)
                return None
            host = p_slot.host
        else:
            host = p_slot
        if host.right is None:
            return (host, RIGHT)
        return None

    def _build_complete_subtree(
        self, container, bit: int, depth: int
    ) -> PosNode:
        """Materialize a complete binary subtree of ``depth`` levels."""
        root = PosNode(container, bit)
        container.set_child(bit, root)
        frontier = [root]
        for _ in range(depth - 1):
            next_frontier = []
            for node in frontier:
                for child_bit in (LEFT, RIGHT):
                    child = PosNode(node, child_bit)
                    node.set_child(child_bit, child)
                    next_frontier.append(child)
            frontier = next_frontier
        root_depth = self._node_depth(root)
        total_depth = root_depth + depth - 1
        if total_depth > self.tree.height:
            self.tree.height = total_depth
        return root
