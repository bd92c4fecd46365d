"""Tree storage nodes for Treedoc (section 3).

The extended binary tree is made of *position nodes* (:class:`PosNode`,
the paper's major nodes) and *mini-nodes* (:class:`MiniNode`). A position
node owns:

- a ``plain`` atom slot — used by identifiers whose final element carries
  no disambiguator (single-user documents and exploded/flattened regions);
- a collection of mini-nodes keyed by disambiguator — concurrent inserts
  at the same position land here;
- two child slots (left/right) reached by *plain* path elements.

Each mini-node additionally owns its own two child slots, reached by path
elements that follow a disambiguated element (rule (ii) of section 3.1).

Both the plain slot of a position node and every mini-node are *atom
slots*; a slot is EMPTY (structural only), LIVE (holds an atom) or a
TOMBSTONE (atom deleted under SDIS; the identifier stays used). The
state has no field of its own: a slot's ``atom`` field holds its atom
when LIVE, else :data:`NO_ATOM` or :data:`DEAD_ATOM`.

Position nodes cache two subtree aggregates maintained incrementally:

- ``live_count`` — LIVE atoms in the subtree (visible document length);
- ``id_count`` — LIVE + TOMBSTONE slots (used identifiers), which drives
  the tombstone-aware neighbour search of DESIGN.md section 3.2.

No node stores its identifier: :func:`slot_posid` derives a slot's
PosID from the parent links when asked (DESIGN.md section 7.1), and
:func:`slot_posids` derives a batch, sharing prefixes through a
:class:`PathMemo` that lives for one call.

Mixed storage (section 4.2)
---------------------------

A plain child slot may also hold an :class:`ArrayLeaf`: a quiescent
subtree stored as a bare atom list with *zero per-atom metadata*. A leaf
always stands for the **canonical exploded form** of its atoms (the
shape :func:`build_exploded` produces — what flatten leaves behind), so
exploding it back rebuilds the identical identifier structure
deterministically, without any replicated operation (the paper's
section 4.2.1 argument).

The canonical form has exactly one builder, :func:`build_exploded`
(with an optional dead-slot bitmap for tombstone-bearing SDIS regions),
and one harvester, :func:`collect_leaf_slots`, its inverse: flatten,
collapse, explode, the state codecs and the run harvest all go through
this pair. :func:`build_partial_exploded` is the large-leaf variant that
materializes only the spine toward a touch point; it shares the same
fill routine. The machinery lives here, next to the nodes, so
:mod:`repro.core.tree` can explode on touch without an import cycle.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.disambiguator import Disambiguator
from repro.core.path import LEFT, PLAIN, RIGHT, PathElement, PosID
from repro.errors import TreeError

# Atom-slot states, as the ``state`` property reports them.
EMPTY = "empty"
LIVE = "live"
TOMBSTONE = "tombstone"


class _SlotMark:
    """The ``atom`` field of a slot that holds no visible atom."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"<{self.name} slot>"


# Slot state lives in the ``atom`` field (DESIGN.md section 7.1): a
# LIVE slot holds its atom, any other slot one of these two marks, which
# no atom can be. Storage code tests them by identity, so hot loops pay
# no property call; everything else reads ``slot.state``.
#: The ``atom`` field of an EMPTY slot.
NO_ATOM = _SlotMark(EMPTY)
#: The ``atom`` field of a TOMBSTONE (its identifier stays used).
DEAD_ATOM = _SlotMark(TOMBSTONE)


def _slot_state(slot: "AtomSlot") -> str:
    atom = slot.atom
    if atom is NO_ATOM:
        return EMPTY
    if atom is DEAD_ATOM:
        return TOMBSTONE
    return LIVE


class MiniNode:
    """A mini-node: one disambiguated atom slot inside a position node."""

    __slots__ = ("host", "dis", "atom", "left", "right")

    def __init__(self, host: "PosNode", dis: Disambiguator) -> None:
        self.host = host
        self.dis = dis
        self.atom: object = NO_ATOM
        self.left: Optional[PosNode] = None
        self.right: Optional[PosNode] = None

    #: EMPTY, LIVE or TOMBSTONE, read off the ``atom`` field.
    state = property(_slot_state)

    def child(self, bit: int) -> Optional["PosNode"]:
        """The child position node on side ``bit``, if materialized."""
        return self.left if bit == LEFT else self.right

    def set_child(self, bit: int, node: Optional["PosNode"]) -> None:
        """Attach or detach the child position node on side ``bit``."""
        if bit == LEFT:
            self.left = node
        else:
            self.right = node

    @property
    def is_leaf(self) -> bool:
        """True when the mini-node has no materialized children."""
        return self.left is None and self.right is None

    def __repr__(self) -> str:
        return f"<mini {self.dis!r} {self.state}>"


#: A parent link's container: the position node or mini-node whose child
#: slot holds this node (its branch bit is the separate ``side`` slot),
#: or None at the root.
Container = Optional[Union["PosNode", MiniNode]]

#: An atom slot: a position node stands for its own plain slot.
AtomSlot = Union["PosNode", MiniNode]

#: What a plain child slot can hold: a position node, or a collapsed
#: quiescent region (section 4.2 mixed storage).
Child = Union["PosNode", "ArrayLeaf"]

#: An infix storage entry: an atom slot, or a whole collapsed region.
Entry = Union["PosNode", MiniNode, "ArrayLeaf"]


class PosNode:
    """A position node (major node) of the extended binary tree."""

    __slots__ = (
        "parent",
        "side",
        "atom",
        "minis",
        "left",
        "right",
        "live_count",
        "id_count",
    )

    def __init__(self, parent: Container = None, side: int = LEFT) -> None:
        #: The parent link, flat: ``parent.child(side) is self`` for every
        #: attached node (``parent`` is None at the root). Two slots, not
        #: a ``(container, bit)`` tuple per node.
        self.parent: Container = parent
        self.side = side
        #: The plain slot's atom, or NO_ATOM / DEAD_ATOM.
        self.atom: object = NO_ATOM
        #: The mini-nodes, packed: the shared ``()`` when there are none,
        #: the one :class:`MiniNode` itself (nearly every host has just
        #: one), or a tuple strictly sorted by disambiguator for two or
        #: more. Falsy exactly when empty; read the nodes through
        #: :meth:`mini_nodes`.
        self.minis: Union[MiniNode, Tuple[MiniNode, ...]] = ()
        self.left: Optional[PosNode] = None
        self.right: Optional[PosNode] = None
        self.live_count = 0
        self.id_count = 0

    #: State of this node's plain atom slot, read off the ``atom`` field.
    state = property(_slot_state)

    # -- structure -----------------------------------------------------------

    def child(self, bit: int) -> Optional["PosNode"]:
        """The plain child on side ``bit``, if materialized."""
        return self.left if bit == LEFT else self.right

    def set_child(self, bit: int, node: Optional["PosNode"]) -> None:
        """Attach or detach the plain child on side ``bit``."""
        if bit == LEFT:
            self.left = node
        else:
            self.right = node

    def mini_nodes(self) -> Tuple[MiniNode, ...]:
        """The mini-nodes in disambiguator order, as a tuple: how code
        reads the packed ``minis`` field (only the walks here, the
        counted descent and the cold-region survey inline it, to save a
        call per node)."""
        minis = self.minis
        return (minis,) if type(minis) is MiniNode else minis

    def set_minis(self, minis: Sequence[MiniNode]) -> None:
        """Store ``minis`` (strictly sorted by disambiguator) packed."""
        self.minis = minis[0] if len(minis) == 1 else tuple(minis)

    def find_mini(self, dis: Disambiguator) -> Optional[MiniNode]:
        """The mini-node with disambiguator ``dis``, if present."""
        minis = self.minis
        if type(minis) is MiniNode:
            return minis if minis.dis == dis else None
        key = dis.key
        for mini in minis:
            mini_key = mini.dis.key
            if mini_key == key:
                return mini
            if mini_key > key:
                return None
        return None

    def get_or_create_mini(self, dis: Disambiguator) -> MiniNode:
        """Find or insert (in disambiguator order) the mini-node ``dis``."""
        found = self.find_mini(dis)
        if found is not None:
            return found
        new = MiniNode(self, dis)
        minis = self.mini_nodes()
        key = dis.key
        index = 0
        while index < len(minis) and minis[index].dis.key < key:
            index += 1
        self.set_minis(minis[:index] + (new,) + minis[index:])
        return new

    def remove_mini(self, mini: MiniNode) -> None:
        """Detach ``mini`` from this node (UDIS discard)."""
        minis = self.mini_nodes()
        for index, candidate in enumerate(minis):
            if candidate is mini:
                self.set_minis(minis[:index] + minis[index + 1:])
                return
        raise TreeError("mini-node not attached to this position node")

    @property
    def is_structurally_empty(self) -> bool:
        """No atoms, no tombstones, no minis, no children: prunable."""
        return (
            self.atom is NO_ATOM
            and not self.minis
            and self.left is None
            and self.right is None
        )

    # -- iteration -----------------------------------------------------------

    def iter_slots(self) -> Iterator[AtomSlot]:
        """All atom slots of this subtree, in identifier (infix) order:
        the entries of :func:`iter_subtree_entries`, which must all be
        slots.

        Yields position nodes (their plain slot) and mini-nodes. The
        order matches :func:`repro.core.path.compare_posids`: left child,
        plain slot, mini-nodes (each with its own left subtree, slot,
        right subtree) in disambiguator order, right child.

        Raises :class:`TreeError` on an :class:`ArrayLeaf` child: leaf
        atoms have no slot objects. Callers that must handle mixed
        storage walk :func:`iter_subtree_entries` instead; callers that
        need slots explode the region first.
        """
        for entry in iter_subtree_entries(self):
            if type(entry) is ArrayLeaf:
                raise TreeError(
                    "iter_slots over a subtree holding an array leaf; "
                    "walk iter_subtree_entries or explode first"
                )
            yield entry

    def iter_nodes(self) -> Iterator["PosNode"]:
        """All tree-resident position nodes of this subtree, each before
        any node below it (pre-order, iterative), so the reversed list
        visits children before parents. Collapsed regions
        (:class:`ArrayLeaf`) hold no nodes and are skipped; walk
        :func:`iter_subtree_entries` to see them."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            minis = node.minis  # unpacked inline, as in the entry walk
            for mini in (minis,) if type(minis) is MiniNode else minis:
                if mini.right is not None:
                    stack.append(mini.right)
                if mini.left is not None:
                    stack.append(mini.left)
            for child in (node.right, node.left):
                if child is not None and type(child) is not ArrayLeaf:
                    stack.append(child)


# ---------------------------------------------------------------------------
# Slot helpers (shared by tree, allocation and flatten code).
# ---------------------------------------------------------------------------


def slot_is_id_holder(slot: AtomSlot) -> bool:
    """True when the slot occupies a used identifier (LIVE or TOMBSTONE)."""
    return slot.atom is not NO_ATOM


def slot_is_live(slot: AtomSlot) -> bool:
    """True when the slot currently holds a visible atom."""
    atom = slot.atom
    return atom is not NO_ATOM and atom is not DEAD_ATOM


def slot_host(slot: AtomSlot) -> PosNode:
    """The position node that owns the slot."""
    return slot.host if isinstance(slot, MiniNode) else slot


def parent_host(node: PosNode) -> Optional[PosNode]:
    """The position node one spine hop above ``node`` (through its
    parent link, resolving a mini-node container to its host), or None
    at the root. The one place the hop rule lives."""
    container = node.parent
    if container is None:
        return None
    return container.host if isinstance(container, MiniNode) else container


def slot_posid(slot: AtomSlot) -> PosID:
    """The PosID naming ``slot``, derived from the parent links.

    An identifier is implied by its slot's place in the tree (section
    3), so no node stores one: this is one upward walk that collects
    the path elements — the shared :data:`~repro.core.path.PLAIN`
    element of each position node's side, and each mini-node's host
    side tagged with its disambiguator — and builds the element tuple
    once. O(depth), with no tuple copy and no new plain element per
    level. A caller deriving many identifiers at once uses
    :func:`slot_posids`, which shares common prefixes for the length of
    the call.
    """
    out: List[PathElement] = []
    append = out.append
    node: AtomSlot = slot
    while True:
        if type(node) is MiniNode:
            host = node.host
            container = host.parent
            if container is None:
                # A mini-node directly at the root would need a
                # zero-length path carrying a disambiguator, which the
                # identifier space cannot express; the tree never
                # creates one.
                raise TreeError("mini-node attached to the root position node")
            append(PathElement(host.side, node.dis))
        else:
            container = node.parent
            if container is None:
                break
            append(PLAIN[node.side])
        node = container
    out.reverse()
    return PosID._of(tuple(out))


class PathMemo:
    """Path elements of the slots one call derives, shared by prefix.

    A batch mint or a listing derives many identifiers whose paths
    share long prefixes; this memo lets each walk stop at the nearest
    slot already passed. It lives for one call and is then dropped, so
    no identifier outlives the request. Every slot passed maps to
    ``(elements, length)``: its path is ``elements[:length]``, a prefix
    of some derived slot's tuple, so recording an ancestor costs one
    dict entry and no tuple copy.
    """

    __slots__ = ("_known",)

    def __init__(self) -> None:
        self._known: dict = {}

    def elements(self, slot: AtomSlot) -> Tuple[PathElement, ...]:
        """The path elements of ``slot``: the walk of :func:`slot_posid`
        (the same step per level, kept inline on this hot path), cut
        short at the first slot already passed."""
        known = self._known
        walked: List[AtomSlot] = []
        tail: List[PathElement] = []
        node: AtomSlot = slot
        while True:
            hit = known.get(node)
            if hit is not None:
                base, length = hit
                break
            if type(node) is MiniNode:
                host = node.host
                container = host.parent
                if container is None:
                    raise TreeError(
                        "mini-node attached to the root position node")
                tail.append(PathElement(host.side, node.dis))
            else:
                container = node.parent
                if container is None:
                    base, length = (), 0
                    break
                tail.append(PLAIN[node.side])
            walked.append(node)
            node = container
        prefix = base if length == len(base) else base[:length]
        if not tail:
            return prefix
        tail.reverse()
        elements = prefix + tuple(tail)
        for depth, passed in enumerate(reversed(walked), length + 1):
            known[passed] = (elements, depth)
        return elements

    def posid(self, slot: AtomSlot) -> PosID:
        """The PosID naming ``slot``."""
        return PosID._of(self.elements(slot))


#: Fewest slots a batch needs before :func:`slot_posids` shares prefixes
#: through a :class:`PathMemo`. Recording a level in the memo costs about
#: three plain steps, so below this a walk per slot is cheaper (and a
#: lone slot must not pay for recording its ancestors at all). On
#: minted batches the two break even at 4 slots in a typed-in-order
#: tree (depth ~90) and at ~8 in a randomly edited one (depth ~28);
#: a listing of a whole tree shares far more and always takes the memo.
MEMO_MIN_SLOTS = 4


def slot_posids(slots: Sequence[AtomSlot]) -> List[PosID]:
    """The PosIDs naming ``slots``, in order: one :func:`slot_posid` walk
    each for a small batch, else through one call-long
    :class:`PathMemo`."""
    if len(slots) < MEMO_MIN_SLOTS:
        return [slot_posid(slot) for slot in slots]
    memo = PathMemo()
    return [memo.posid(slot) for slot in slots]


def slot_depth(slot: AtomSlot) -> int:
    """Number of path elements in the slot's PosID (cheap, no PosID)."""
    depth = 0
    node: Optional[PosNode] = slot_host(slot)
    while node is not None and node.parent is not None:
        depth += 1
        container = node.parent
        node = container.host if isinstance(container, MiniNode) else container
    return depth


# ---------------------------------------------------------------------------
# Canonical exploded form (section 4.2, Algorithm 2) — the shape that
# both flatten and explode-on-touch build, and the shape a subtree must
# have to be collapsible into an ArrayLeaf.
# ---------------------------------------------------------------------------


def explode_depth(atom_count: int) -> int:
    """Depth of the canonical complete tree for ``atom_count`` atoms.

    ``ceil(log2(n + 1))`` computed exactly as ``n.bit_length()`` — no
    float round-trip (the shape check must be bit-exact at any size).
    """
    return atom_count.bit_length() if atom_count else 1


def _canonical_split(count: int) -> Tuple[int, int]:
    """``(left_atoms, right_atoms)`` of the canonical root for ``count``
    atoms: the root sits after its complete left subtree, or takes the
    last atom when the final level is only partially filled."""
    left = min((1 << (explode_depth(count) - 1)) - 1, count - 1)
    return left, count - 1 - left


def build_exploded(node: "PosNode", atoms: Sequence[object],
                   dead: int = 0) -> None:
    """Rebuild ``node``'s subtree as the canonical exploded form of
    ``atoms`` (Algorithm 2), in place. The node keeps its parent link.

    ``dead`` is a tombstone-bearing region's offset bitmap: the slots at
    its set offsets come back as SDIS tombstones instead of live atoms
    (``atoms`` holds None there). This is the exact inverse of
    :func:`collect_leaf_slots`, so a region collapsed with its stable
    tombstones explodes back to the identical structure and the leaf
    stays invisible to remote operations.

    With no atoms the subtree becomes a bare empty node.
    """
    node.atom = NO_ATOM
    node.minis = ()
    node.left = None
    node.right = None
    if not atoms:
        node.live_count = 0
        node.id_count = 0
        return
    _fill_complete(node, atoms, 0, len(atoms), dead)


def _fill_complete(node: "PosNode", atoms: Sequence[object],
                   lo: int, hi: int, dead: int = 0) -> None:
    """Assign ``atoms[lo:hi]`` infix-style to a complete subtree under
    ``node``.

    The middle atom lands on ``node`` itself; left and right halves
    recurse into freshly created children. Surplus positions are simply
    never created, which realizes Algorithm 2's "remove any remaining
    nodes" without a second pass. Children are complete trees, so the
    result equals building the full tree and pruning. Slots at the set
    offsets of ``dead`` become tombstones; a fully live fill (``dead``
    0) never computes a bitmap mask.
    """
    # Iterative splitting to cope with large arrays without recursion
    # limits: stack of (node, atom-slice bounds).
    stack: List[Tuple[PosNode, int, int]] = [(node, lo, hi)]
    while stack:
        current, lo, hi = stack.pop()
        count = hi - lo
        left_atoms, right_atoms = _canonical_split(count)
        mid = lo + left_atoms
        current.atom = atoms[mid]
        current.live_count = count
        current.id_count = count
        if dead:
            current.live_count -= (
                (dead >> lo) & ((1 << count) - 1)).bit_count()
            if (dead >> mid) & 1:
                current.atom = DEAD_ATOM
        if left_atoms > 0:
            left = PosNode(current, LEFT)
            current.left = left
            stack.append((left, lo, mid))
        if right_atoms > 0:
            right = PosNode(current, RIGHT)
            current.right = right
            stack.append((right, mid + 1, hi))


def build_partial_exploded(node: "PosNode", atoms: Sequence[object],
                           around: int, core_atoms: int, leaf_min: int,
                           tree) -> None:
    """Rebuild ``node``'s subtree as a *partial* canonical explosion of
    ``atoms``: real structure along the canonical spine to slot offset
    ``around``, off-spine sides kept collapsed as sub-leaves.

    Every materialized node carries exactly the plain atom, counts and
    children the full canonical form (:func:`build_exploded`) would give
    it — the only difference is that subtrees the spine never enters
    stay :class:`ArrayLeaf`\\ s. Since a leaf *is* the canonical form of
    its atoms, the partial result is canonical too, and a replica that
    exploded fully remains PosID-identical with one that exploded
    partially. The descent stops splitting once the remainder holds at
    most ``core_atoms`` atoms (materialized complete); sides smaller
    than ``leaf_min`` are materialized rather than kept as leaves.
    """
    node.atom = NO_ATOM
    node.minis = ()
    node.left = None
    node.right = None
    current, lo, hi = node, 0, len(atoms)
    while True:
        count = hi - lo
        if count <= core_atoms:
            _fill_complete(current, atoms, lo, hi)
            return
        left_atoms, _right_atoms = _canonical_split(count)
        mid = lo + left_atoms
        current.atom = atoms[mid]
        current.live_count = count
        current.id_count = count
        if around < mid:
            _attach_partial_side(current, RIGHT, atoms, mid + 1, hi,
                                 leaf_min, tree)
            child = PosNode(current, LEFT)
            current.left = child
            current, hi = child, mid
        elif around > mid:
            _attach_partial_side(current, LEFT, atoms, lo, mid,
                                 leaf_min, tree)
            child = PosNode(current, RIGHT)
            current.right = child
            current, lo = child, mid + 1
        else:
            _attach_partial_side(current, LEFT, atoms, lo, mid,
                                 leaf_min, tree)
            _attach_partial_side(current, RIGHT, atoms, mid + 1, hi,
                                 leaf_min, tree)
            return


def _attach_partial_side(current: "PosNode", bit: int,
                         atoms: Sequence[object], lo: int, hi: int,
                         leaf_min: int, tree) -> None:
    """Attach ``atoms[lo:hi]`` as ``current``'s off-spine child: a
    sub-leaf when large enough to be worth keeping collapsed, else the
    materialized complete subtree."""
    if hi <= lo:
        return
    if hi - lo >= leaf_min:
        current.set_child(bit, ArrayLeaf(current, bit, list(atoms[lo:hi]),
                                         tree))
    else:
        child = PosNode(current, bit)
        current.set_child(bit, child)
        _fill_complete(child, atoms, lo, hi)


def collect_leaf_slots(child: Child, min_atoms: int = 1,
                       allow_tombstones: bool = False
                       ) -> Optional[Tuple[List[object], int]]:
    """``(atoms, dead)`` of a subtree in canonical exploded form, else
    None — the collapse predicate and the harvest in one walk, and the
    exact inverse of :func:`build_exploded`.

    Canonical means: no mini-nodes, no empty structural nodes, and the
    left/right split at every level matches :func:`build_exploded` — so
    a later explode rebuilds the *identical* structure. An already
    collapsed child (:class:`ArrayLeaf`) counts as canonical for its own
    atoms, which lets neighbouring leaves merge into a larger one.

    With ``allow_tombstones`` False every slot must be LIVE (any
    tombstone or dead-slot leaf rejects) and ``dead`` is 0: the fully
    live form that flatten builds and the run codecs ship. With it True
    (SDIS collapse) the shape check is keyed on **identifier** counts —
    a tombstone still occupies its slot — so a region that was canonical
    when built stays collapsible after some of its atoms are deleted;
    ``atoms`` then has the region's full identifier length with None at
    each dead offset, and ``dead`` is the offset bitmap. A region with
    no visible atoms at all returns None — an all-dead leaf would be
    invisible yet unprunable, and purge+flatten handles it better.
    """
    expected = (
        len(child.atoms) if type(child) is ArrayLeaf else child.id_count
    )
    if expected < min_atoms or (
        not allow_tombstones and child.live_count != expected
    ):
        # A fully live harvest rejects any tombstone in O(1) from the
        # subtree's own counts, before walking it.
        return None
    out: List[object] = []
    dead_acc = [0]
    if not _collect_canonical_slots(child, expected, out, allow_tombstones,
                                    dead_acc):
        return None
    dead = dead_acc[0]
    if len(out) == dead.bit_count():
        return None
    return out, dead


def _collect_canonical_slots(child: Child, expected: int, out: List[object],
                             allow_tombstones: bool,
                             dead_acc: List[int]) -> bool:
    # Verifying split counts before descending bounds the walk to the
    # canonical depth (O(log n) recursion), so this is safe on trees far
    # deeper than the recursion limit: a non-canonical deep chain fails
    # its count check at the top. The live case is tested first and the
    # bitmap accumulator is touched only at a tombstone.
    if type(child) is ArrayLeaf:
        if len(child.atoms) != expected:
            return False
        if child.dead:
            if not allow_tombstones:
                return False
            dead_acc[0] |= child.dead << len(out)
        out.extend(child.atoms)
        return True
    node = child
    atom = node.atom
    if node.minis or node.id_count != expected or atom is NO_ATOM or (
        atom is DEAD_ATOM and not allow_tombstones
    ):
        return False
    left_atoms, right_atoms = _canonical_split(expected)
    if left_atoms == 0:
        if node.left is not None:
            return False
    elif node.left is None or not _collect_canonical_slots(
        node.left, left_atoms, out, allow_tombstones, dead_acc
    ):
        return False
    if atom is DEAD_ATOM:
        dead_acc[0] |= 1 << len(out)
        out.append(None)
    else:
        out.append(atom)
    if right_atoms == 0:
        return node.right is None
    if node.right is None:
        return False
    return _collect_canonical_slots(node.right, right_atoms, out,
                                    allow_tombstones, dead_acc)


def canonical_path_bits(count: int, index: int) -> Tuple[int, ...]:
    """Branch bits of atom ``index`` within a canonical region of
    ``count`` atoms, relative to the region root (O(log count))."""
    if not 0 <= index < count:
        raise TreeError(f"atom index {index} out of canonical region 0..{count}")
    bits: List[int] = []
    lo, hi = 0, count
    while True:
        left_atoms, _ = _canonical_split(hi - lo)
        mid = lo + left_atoms
        if index == mid:
            return tuple(bits)
        if index < mid:
            bits.append(LEFT)
            hi = mid
        else:
            bits.append(RIGHT)
            lo = mid + 1


def canonical_bits_to_index(count: int, bits: Sequence[int]) -> int:
    """Slot offset a path of plain branch ``bits`` routes *to or
    through* inside a canonical region of ``count`` atoms: the last
    on-path midpoint (the region root's own slot for an empty path).
    Bits that run past the region's structure — a path deeper than the
    canonical form, about to create fresh nodes — anchor at the last
    midpoint reached. Used to pick the partial-explode touch point for
    an incoming remote path."""
    lo, hi = 0, count
    left_atoms, _ = _canonical_split(count)
    mid = lo + left_atoms
    for bit in bits:
        if bit == LEFT:
            hi = mid
        else:
            lo = mid + 1
        if hi <= lo:
            break
        left_atoms, _ = _canonical_split(hi - lo)
        mid = lo + left_atoms
    return mid


def canonical_posids(base: Tuple[PathElement, ...], count: int) -> List[PosID]:
    """PosIDs of a canonical region's atoms, in document order.

    ``base`` is the path of the region root (the root atom's own PosID
    elements); deeper atoms extend it with plain branch bits. One
    infix-ordered pass shares the prefix tuples along each spine.
    """
    out: List[Optional[PosID]] = [None] * count
    stack: List[Tuple[Tuple[PathElement, ...], int, int]] = [(base, 0, count)]
    while stack:
        elements, lo, hi = stack.pop()
        left_atoms, right_atoms = _canonical_split(hi - lo)
        mid = lo + left_atoms
        out[mid] = PosID._of(elements)
        if left_atoms > 0:
            stack.append((elements + (PLAIN[LEFT],), lo, mid))
        if right_atoms > 0:
            stack.append((elements + (PLAIN[RIGHT],), mid + 1, hi))
    return out  # type: ignore[return-value]


class ArrayLeaf:
    """A quiescent region stored as a bare atom list (section 4.2).

    Replaces a whole subtree at a position node's plain child slot. The
    region is always the canonical exploded *shape* of its identifiers —
    fully plain, one slot per atom — so the leaf needs **no per-atom
    metadata**: its identifier structure is implied by the atom count
    and the attach point. :meth:`explode` rebuilds that structure
    deterministically and locally when a path lands inside the region
    ("applying a path to an array", section 4.2.1) — no replicated
    explode operation exists.

    The ``dead`` bitmap is the tombstone-tolerant extension (DESIGN.md
    section 12): a set bit marks a slot whose atom was deleted under
    SDIS but whose identifier is not yet causally stable enough to
    purge. ``atoms`` always has full identifier length, with None at
    each dead offset; reads mask the dead slots (``live_atoms``,
    ``live_to_slot``), and explode restores them as TOMBSTONE slots. A
    fully live leaf has ``dead == 0`` and pays nothing for the feature.

    ``tree`` is the owning :class:`repro.core.tree.TreedocTree`: explode
    counts itself there and notifies the tree's owner, and navigation
    helpers that step into a leaf have no other route to the tree. Explode
    clears both ``parent`` and ``tree`` on the way out, so an exploded
    husk is fully detached: it dies by reference counting alone and a
    stray reference to it cannot pin the tree.
    """

    __slots__ = ("parent", "side", "atoms", "tree", "dead",
                 "live_count", "id_count", "_live_map")

    #: Class-level pseudo-state: a leaf is not an atom slot, but giving
    #: it a ``state`` that matches no slot state lets an entry walk test
    #: ``entry.state == LIVE`` before a type check. (Hot walks test the
    #: leaf type first and then the slot's ``atom`` field by identity.)
    state = "array"

    def __init__(self, parent: Container, side: int, atoms: List[object],
                 tree, dead: int = 0) -> None:
        if not atoms:
            raise TreeError("an array leaf must hold at least one atom")
        if dead:
            if dead < 0 or dead >> len(atoms):
                raise TreeError("dead bitmap wider than the atom array")
            if dead.bit_count() >= len(atoms):
                raise TreeError("an array leaf must hold a visible atom")
        self.parent = parent
        self.side = side
        self.atoms = atoms
        self.tree = tree
        self.dead = dead
        #: Visible atoms / used identifiers of the region. Plain
        #: attributes, not properties: the counted descent reads them
        #: as a child's aggregates on hot paths.
        self.live_count = len(atoms) - dead.bit_count()
        self.id_count = len(atoms)
        #: Lazily built live-offset -> slot-offset table (None until a
        #: masked read needs it; stays None for dead == 0).
        self._live_map: Optional[List[int]] = None

    @property
    def implicit_depth(self) -> int:
        """Levels the exploded form of this region occupies."""
        return explode_depth(len(self.atoms))

    def live_atoms(self) -> List[object]:
        """The region's visible atoms (the raw array when nothing is
        dead — callers must not mutate the result)."""
        if not self.dead:
            return self.atoms
        dead = self.dead
        return [atom for offset, atom in enumerate(self.atoms)
                if not (dead >> offset) & 1]

    def _ensure_live_map(self) -> List[int]:
        table = self._live_map
        if table is None:
            dead = self.dead
            table = [offset for offset in range(len(self.atoms))
                     if not (dead >> offset) & 1]
            self._live_map = table
        return table

    def live_to_slot(self, offset: int) -> int:
        """Slot offset (index into ``atoms``) of visible atom ``offset``."""
        if not self.dead:
            return offset
        return self._ensure_live_map()[offset]

    def live_atom(self, offset: int) -> object:
        """The ``offset``-th *visible* atom of the region."""
        if not self.dead:
            return self.atoms[offset]
        return self.atoms[self._ensure_live_map()[offset]]

    def explode(self, around: Optional[int] = None) -> "PosNode":
        """Rebuild the region as tree structure; returns the new subtree
        root. Delegates to the owning tree (counters, explode listener).
        ``around`` is the slot offset about to be touched — large leaves
        then explode partially around it."""
        if self.tree is None:
            raise TreeError("array leaf already exploded")
        return self.tree.explode_leaf(self, around)

    def posids(self) -> List[PosID]:
        """PosIDs of the region's *visible* atoms in document order,
        without exploding."""
        region = canonical_posids(self.base_elements(), len(self.atoms))
        dead = self.dead
        if not dead:
            return region
        return [posid for offset, posid in enumerate(region)
                if not (dead >> offset) & 1]

    def id_posids(self) -> List[PosID]:
        """PosIDs of every used identifier of the region (visible atoms
        and dead slots), in document order."""
        return canonical_posids(self.base_elements(), len(self.atoms))

    def base_elements(self) -> Tuple[PathElement, ...]:
        """Path elements of the region root (the attach point's child)."""
        container = self.parent
        if container is None:
            raise TreeError("detached array leaf has no path")
        if isinstance(container, MiniNode):
            raise TreeError("array leaf attached under a mini-node")
        return slot_posid(container).elements + (PLAIN[self.side],)

    def __repr__(self) -> str:
        if self.dead:
            return (f"<array-leaf {self.live_count} atoms "
                    f"(+{self.id_count - self.live_count} dead)>")
        return f"<array-leaf {len(self.atoms)} atoms>"


def iter_subtree_entries(root: "PosNode") -> Iterator[Entry]:
    """All storage entries of ``root``'s subtree in identifier order:
    every atom slot (left child, plain slot, mini-nodes in
    disambiguator order, right child), plus each :class:`ArrayLeaf`
    yielded whole at its region's infix position.

    The one infix walk of the tree layout (DESIGN.md section 7.1):
    :meth:`PosNode.iter_slots` and every ordered reader go through it.
    The PosNode branch is tested first, so the common path pays no
    leaf check; leaves only pay on the rare mini/leaf branches.
    Iterative: documents replayed from long append-heavy histories
    produce trees deeper than CPython's default recursion limit.
    """
    stack: List[Tuple[object, int]] = [(root, 0)]
    while stack:
        item, phase = stack.pop()
        if isinstance(item, PosNode):
            if phase == 0:
                stack.append((item, 1))
                if item.left is not None:
                    stack.append((item.left, 0))
            else:
                yield item
                if item.right is not None:
                    stack.append((item.right, 0))
                minis = item.minis  # unpacked inline: no call, no tuple
                if type(minis) is MiniNode:
                    stack.append((minis, 0))
                elif minis:
                    for mini in reversed(minis):
                        stack.append((mini, 0))
        elif isinstance(item, MiniNode):
            mini = item
            if phase == 0:
                stack.append((mini, 1))
                if mini.left is not None:
                    stack.append((mini.left, 0))
            else:
                yield mini
                if mini.right is not None:
                    stack.append((mini.right, 0))
        else:  # ArrayLeaf: the whole region, in one entry
            yield item


def subtree_height(root: "PosNode") -> int:
    """Path length of the deepest identifier level under ``root``, in
    elements: one per plain or mini-node child step, and a collapsed
    region counted as the levels its exploded form would occupy. Of the
    whole tree this is what ``TreedocTree.height`` holds."""
    height = 0
    stack: List[Tuple[PosNode, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > height:
            height = depth
        depth += 1
        minis = node.minis
        for mini in (minis,) if type(minis) is MiniNode else minis:
            if mini.left is not None:
                stack.append((mini.left, depth))
            if mini.right is not None:
                stack.append((mini.right, depth))
        for child in (node.left, node.right):
            if type(child) is ArrayLeaf:
                height = max(height, depth - 1 + child.implicit_depth)
            elif child is not None:
                stack.append((child, depth))
    return height


def subtree_atoms(root: "PosNode") -> List[object]:
    """Visible atoms of ``root``'s subtree, in identifier order, by one
    entry walk: a collapsed region contributes its array in one
    ``extend``, without exploding."""
    atoms: List[object] = []
    append = atoms.append
    for entry in iter_subtree_entries(root):
        if type(entry) is ArrayLeaf:
            atoms.extend(entry.live_atoms())
            continue
        atom = entry.atom
        if atom is not NO_ATOM and atom is not DEAD_ATOM:
            append(atom)
    return atoms
