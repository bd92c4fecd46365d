"""Structural clean-up: explode and flatten (section 4.2, Algorithm 2).

``explode`` maps an atom array onto the canonical complete binary tree:
depth ``ceil(log2(n+1))``, atoms assigned to positions in infix order,
surplus positions removed. After explode every path is a plain bitstring
with no disambiguators — the zero-overhead representation.

``flatten`` replaces a subtree by the explode of its visible atom
sequence, discarding tombstones, mini-nodes and disambiguators in one
stroke. Replicas must apply the same flatten to the same state, which the
distributed commitment protocol of :mod:`repro.replication.commit`
guarantees; the functions here are the local state transformations.

``ColdRegionFinder`` implements the flatten heuristic evaluated in
section 5.1: position nodes are stamped with the revision that last
touched them, and the largest subtree untouched for ``min_age``
revisions (holding at least ``min_slots`` identifiers) is picked for
flattening. ``find_collapsible`` reads the same stamps to pick the cold
canonical regions that collapse into array leaves (section 4.2 mixed
storage, DESIGN.md section 7).

Both rebuild and harvest go through the one canonical-form pair of
:mod:`repro.core.node`: :func:`repro.core.node.build_exploded` and
:func:`repro.core.node.collect_leaf_slots`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.node import (
    ArrayLeaf,
    MiniNode,
    PosNode,
    build_exploded,
    collect_leaf_slots,
    subtree_atoms,
    subtree_height,
)
from repro.core.path import LEFT, RIGHT, PosID
from repro.core.tree import TreedocTree
from repro.errors import TreeError


def explode(atoms: Sequence[object]) -> TreedocTree:
    """Algorithm 2: a fresh tree whose contents equal ``atoms``.

    The root position node carries the middle atom; all identifiers are
    plain bitstrings.
    """
    tree = TreedocTree()
    build_exploded(tree.root, atoms)
    tree.height = subtree_height(tree.root)
    return tree


def flatten_subtree(tree: TreedocTree, path: PosID,
                    atoms: Optional[List[object]] = None) -> List[object]:
    """Flatten the subtree rooted at the position node named by ``path``
    (plain bits only): rebuild it as the canonical exploded form of its
    visible atoms. Returns the atom array.

    ``atoms`` may carry the subtree's visible atoms when the caller
    already walked the region (the digest check does); passing them
    skips a redundant walk.

    Raises :class:`TreeError` when ``path`` has disambiguated elements or
    names no materialized node.
    """
    node = resolve_region(tree, path)
    old_counts = (node.live_count, node.id_count)
    if atoms is None:
        atoms = subtree_atoms(node)
    build_exploded(node, atoms)
    tree.recount_subtree(node, old_counts=old_counts)
    tree.height = subtree_height(tree.root)
    return atoms


def resolve_region(tree: TreedocTree, path: PosID) -> PosNode:
    """The position node named by a plain-bit ``path``.

    A path landing on or inside a collapsed region explodes it —
    applying a path to an array (section 4.2.1)."""
    node = tree.root
    for element in path:
        if element.dis is not None:
            raise TreeError("flatten regions are addressed by plain paths")
        child = node.child(element.bit)
        if child is None:
            raise TreeError(f"no node at region path {path!r}")
        if isinstance(child, ArrayLeaf):
            child = child.explode()
        node = child
    return node


class ColdRegionFinder:
    """Pick "cold" subtrees for flattening (section 5.1 heuristic).

    The tree's owner stamps every position node on the path of each edit
    with a monotonically increasing revision number (see
    :meth:`repro.core.treedoc.Treedoc.note_revision`). A subtree is cold
    when its newest stamp is at least ``min_age`` revisions old.
    """

    def __init__(self, min_age: int = 1, min_slots: int = 4,
                 min_depth: int = 1) -> None:
        if min_age < 1:
            raise ValueError("min_age must be at least 1")
        if min_depth < 1:
            raise ValueError("min_depth must be at least 1")
        self.min_age = min_age
        self.min_slots = min_slots
        #: Never flatten above this depth. 1 forbids only the root
        #: (whole-document flattening stays an explicit operation);
        #: larger values emulate the paper's weaker heuristic, which
        #: flattened partial "cold areas" and left many tombstones
        #: behind (section 5.1 discusses the shortfall).
        self.min_depth = min_depth

    def find(self, tree: TreedocTree, stamps: dict,
             current_revision: int) -> Optional[PosID]:
        """Largest cold *proper* subtree's plain path, or None.

        ``stamps`` maps id(PosNode) -> last-touch revision; unstamped
        nodes count as never touched (revision 0). The root itself is
        never selected: the paper's heuristic flattens "some cold area"
        of the document, not the whole of it (and observes that its
        partial subtree choice limits the achievable clean-up —
        section 5.1); whole-document flattening remains available
        explicitly via ``flatten_local(ROOT)``.
        """
        # One bottom-up pass computes every subtree's newest stamp, so
        # the top-down selection below reads a dict entry per node
        # instead of re-walking each candidate subtree (which made the
        # heuristic quadratic on replay workloads).
        # Subtrees holding collapsed regions are never selected: a
        # flatten would swallow the zero-metadata array leaves back
        # into per-atom tree form for no tombstone gain (the leaves are
        # fully live and canonical by construction). The finder
        # descends past them and cleans the tree-form pockets around
        # them instead.
        newest, leafy = self._survey(tree.root, stamps)
        best: Optional[Tuple[Tuple[int, int], List[int]]] = None
        # Walk top-down; the first cold node on a branch dominates its
        # descendants, so do not descend past a cold subtree.
        stack: List[Tuple[PosNode, List[int]]] = [(tree.root, [])]
        while stack:
            node, bits = stack.pop()
            if len(bits) >= self.min_depth and id(node) not in leafy and (
                current_revision - newest[id(node)] >= self.min_age
            ):
                if node.id_count >= self.min_slots:
                    # Prefer the region with the most *dead* identifiers
                    # (tombstones to collect), then the largest. Scoring
                    # by size alone wastes flattens on big clean regions
                    # — plausibly the shortfall the paper reports for
                    # its own heuristic (section 5.1).
                    score = (node.id_count - node.live_count, node.id_count)
                    if best is None or score > best[0]:
                        best = (score, bits)
                continue
            for bit, child in ((LEFT, node.left), (RIGHT, node.right)):
                if child is not None and not isinstance(child, ArrayLeaf):
                    stack.append((child, bits + [bit]))
        if best is None:
            return None
        return PosID.from_bits(best[1])

    @staticmethod
    def _survey(node: PosNode, stamps: dict) -> Tuple[dict, set]:
        """One children-first pass over the subtree under ``node`` (the
        reversed :meth:`PosNode.iter_nodes`):

        - ``newest``: id(PosNode) -> newest stamp in that node's
          subtree (collapsed regions are quiescent by construction and
          never stamped, so array leaves contribute nothing);
        - ``leafy``: ids of position nodes whose subtree holds an array
          leaf (excluded from flatten candidacy).
        """
        newest: dict = {}
        leafy: set = set()
        get_stamp = stamps.get
        for current in reversed(list(node.iter_nodes())):
            value = get_stamp(id(current), 0)
            is_leafy = False
            minis = current.minis  # unpacked inline, as in iter_nodes
            for mini in (minis,) if type(minis) is MiniNode else minis:
                for child in (mini.left, mini.right):
                    if child is not None:
                        child_value = newest[id(child)]
                        if child_value > value:
                            value = child_value
                        if id(child) in leafy:
                            is_leafy = True
            for child in (current.left, current.right):
                if child is None:
                    continue
                if type(child) is ArrayLeaf:
                    is_leafy = True
                    continue
                child_value = newest[id(child)]
                if child_value > value:
                    value = child_value
                if id(child) in leafy:
                    is_leafy = True
            newest[id(current)] = value
            if is_leafy:
                leafy.add(id(current))
        return newest, leafy


def find_collapsible(
    tree: TreedocTree,
    stamps: dict,
    current_revision: int,
    min_age: int = 2,
    min_atoms: int = 8,
    allow_tombstones: bool = False,
    withhold=None,
) -> List[Tuple[PosID, PosNode, List[object], int]]:
    """Cold canonical subtrees ready to collapse into array leaves.

    Returns ``(plain path, subtree root, atoms, dead bitmap)``
    4-tuples, top-down and left-to-right. A subtree qualifies when it
    has been untouched for ``min_age`` revisions (by the
    :class:`ColdRegionFinder` stamps), is in canonical exploded form
    (:func:`repro.core.node.collect_leaf_slots` — the shape flatten
    builds), and holds at least ``min_atoms`` identifiers. With
    ``allow_tombstones`` (SDIS mode), stable-tombstone slots are
    harvested into the leaf's dead bitmap instead of blocking the
    collapse; the bitmap is 0 for fully live regions. The root itself
    never collapses (mirroring the flatten heuristic); a
    cold-but-hot-shaped subtree is descended, so smaller canonical
    pockets inside it are still found. Already collapsed children are
    skipped.

    ``withhold`` is the re-collapse hysteresis hook: an optional
    ``(bits, node, age) -> bool`` callable consulted on regions that
    qualify structurally; returning True withholds the region whole —
    its inner pockets are the same region, so the scan does not descend
    into it either.
    """
    newest = ColdRegionFinder._survey(tree.root, stamps)[0]
    regions: List[Tuple[PosID, PosNode, List[object], int]] = []
    stack: List[Tuple[PosNode, Tuple[int, ...]]] = [(tree.root, ())]
    while stack:
        node, bits = stack.pop()
        age = current_revision - newest[id(node)]
        if bits and age >= min_age:
            harvest = collect_leaf_slots(node, min_atoms, allow_tombstones)
            if harvest is not None:
                if withhold is not None and withhold(bits, node, age):
                    continue
                atoms, dead = harvest
                regions.append((PosID.from_bits(bits), node, atoms, dead))
                continue
        for bit, child in ((LEFT, node.left), (RIGHT, node.right)):
            if child is not None and not isinstance(child, ArrayLeaf):
                stack.append((child, bits + (bit,)))
    regions.sort(key=lambda item: item[0].bits())
    return regions
