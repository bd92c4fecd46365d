"""Atom runs: the shared RLE segment layout of wire and disk (section 5.2).

A *run* is a contiguous region of atoms whose identifier structure is a
deterministic function of three small facts — the path of the region
root, the atom count, and an optional disambiguator pattern — so the
region can cross a boundary (the wire, the disk) as ``base + count +
atoms`` instead of one framed identifier per atom. Two shapes exist in
this codebase, and both are runs:

- **canonical** (:data:`CANONICAL`): the canonical exploded form that
  flatten, explode-on-touch and :class:`repro.core.node.ArrayLeaf`
  regions all share (``build_exploded``'s split rule). Its member
  identifiers are plain paths implied by the count alone.
- **prefix** (:data:`PREFIX`): the shape ``Allocator.place_run`` mints
  for a local burst — the first *n* infix positions of one complete
  subtree of depth ``explode_depth(n)``, each atom a mini-node. A
  burst's UDIS disambiguators carry consecutive counters from one site,
  so the whole pattern compresses to ``(site, first counter)``; under
  SDIS it is just the site.

This module owns everything both sides need and must agree on:

- the :class:`AtomRun` model — member PosIDs, expansion to insert
  operations, both shape generators;
- run *detection* in operation sequences (:func:`find_runs` /
  :func:`run_from_ops`), used by the batch frames of
  :mod:`repro.core.encoding`;
- the RLE **run record** codec (:func:`write_run_record` /
  :func:`read_run_record`) and the :class:`AtomTable` it references —
  the exact ``(count, first reference)`` pair the disk v2 leaf record
  invented, now shared so the wire and disk layouts cannot drift;
- document **state segments**: :func:`iter_state_segments` harvests a
  whole tree as runs plus singleton operations, and
  :func:`load_state_segments` rebuilds a tree from them, loading
  canonical runs directly into :class:`ArrayLeaf` children *without
  exploding* (how segment state frames written by older codecs load).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.core.disambiguator import Disambiguator, Sdis, SiteId, Udis
from repro.core.node import (
    DEAD_ATOM,
    NO_ATOM,
    ArrayLeaf,
    MiniNode,
    canonical_posids,
    collect_leaf_slots,
    explode_depth,
)
from repro.core.ops import DeleteOp, InsertOp, Operation
from repro.core.path import LEFT, RIGHT, PathElement, PosID
from repro.errors import EncodingError, TreeError

#: Run shapes (see module docstring).
CANONICAL = "canonical"
PREFIX = "prefix"

#: Smallest burst worth a run segment on the wire: below this the base
#: path + pattern header costs more than the per-op framing it saves.
RUN_MIN_ATOMS = 4

#: A run's disambiguator pattern: None for plain canonical regions,
#: ``("udis", site, first_counter)`` for a UDIS burst (counters are
#: consecutive in document order), ``("sdis", site)`` for an SDIS burst.
DisPattern = Optional[Tuple]

#: What a segment stream may carry: whole runs and singleton operations.
Segment = Union["AtomRun", Operation]


# ---------------------------------------------------------------------------
# Shape generators.
# ---------------------------------------------------------------------------


def prefix_path_bits(count: int, index: int) -> Tuple[int, ...]:
    """Branch bits of atom ``index`` within a *prefix*-shaped run of
    ``count`` atoms: the ``index``-th infix position of the complete
    subtree of depth ``explode_depth(count)`` (``place_run``'s layout),
    relative to the region root."""
    if not 0 <= index < count:
        raise TreeError(f"atom index {index} out of run 0..{count}")
    bits: List[int] = []
    levels = explode_depth(count)
    while True:
        half = (1 << (levels - 1)) - 1  # positions in the left subtree
        if index == half:
            return tuple(bits)
        if index < half:
            bits.append(LEFT)
        else:
            bits.append(RIGHT)
            index -= half + 1
        levels -= 1


def prefix_posids(base: Tuple[PathElement, ...], count: int) -> List[PosID]:
    """Plain PosIDs of a prefix-shaped run's atoms, in document order
    (the prefix-shape analogue of :func:`canonical_posids`)."""
    out: List[Optional[PosID]] = [None] * count
    levels = explode_depth(count)
    stack: List[Tuple[Tuple[PathElement, ...], int, int]] = [(base, 0, levels)]
    while stack:
        elements, lo, level = stack.pop()
        half = (1 << (level - 1)) - 1
        mid = lo + half
        if mid < count:
            out[mid] = PosID(elements)
        if level > 1:
            if lo < count and half > 0:
                stack.append((elements + (PathElement(LEFT),), lo, level - 1))
            if mid + 1 < count:
                stack.append((elements + (PathElement(RIGHT),), mid + 1,
                              level - 1))
    return out  # type: ignore[return-value]


def _pattern_dis(dis: DisPattern, index: int) -> Optional[Disambiguator]:
    """The ``index``-th disambiguator of a run's pattern (doc order)."""
    if dis is None:
        return None
    if dis[0] == "udis":
        return Udis(dis[2] + index, dis[1])
    return Sdis(dis[1])


class AtomRun:
    """One contiguous run: base path + atoms + shape + dis pattern.

    ``base`` is the element path of the region root's atom (non-empty;
    its final element is plain — the region hangs at a plain child
    slot). Member identifiers extend it with shape-implied branch bits;
    with a dis pattern, each member's *final* element carries its
    pattern-implied disambiguator (the run's atoms are mini-nodes).
    """

    __slots__ = ("base", "atoms", "shape", "dis")

    def __init__(self, base: Tuple[PathElement, ...],
                 atoms: Tuple[object, ...],
                 shape: str = CANONICAL,
                 dis: DisPattern = None) -> None:
        if not base:
            raise TreeError("a run cannot be rooted at the tree root")
        if base[-1].dis is not None:
            raise TreeError("a run's base must end in a plain element")
        if not atoms:
            raise TreeError("a run must hold at least one atom")
        if shape not in (CANONICAL, PREFIX):
            raise TreeError(f"unknown run shape {shape!r}")
        self.base = tuple(base)
        self.atoms = tuple(atoms)
        self.shape = shape
        self.dis = dis

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def kind(self) -> str:
        return "run"

    def posids(self) -> List[PosID]:
        """Member PosIDs in document order."""
        count = len(self.atoms)
        if self.shape == CANONICAL:
            plain = canonical_posids(self.base, count)
        else:
            plain = prefix_posids(self.base, count)
        if self.dis is None:
            return plain
        out: List[PosID] = []
        for index, posid in enumerate(plain):
            elements = posid.elements
            out.append(PosID(
                elements[:-1]
                + (PathElement(elements[-1].bit,
                               _pattern_dis(self.dis, index)),)
            ))
        return out

    def insert_ops(self, origin: SiteId) -> List[InsertOp]:
        """The run expanded to per-atom insert operations."""
        return [InsertOp(posid, atom, origin)
                for posid, atom in zip(self.posids(), self.atoms)]

    def __eq__(self, other: object) -> bool:
        """Value equality (a run is its four facts): decoded segment
        streams — batch frames, state frames, SyncDelta bodies — must
        compare equal to what the encoder was handed."""
        if not isinstance(other, AtomRun):
            return NotImplemented
        return (self.base == other.base and self.atoms == other.atoms
                and self.shape == other.shape and self.dis == other.dis)

    def __hash__(self) -> int:
        return hash((self.base, self.atoms, self.shape, self.dis))

    def __repr__(self) -> str:
        return (
            f"<run {self.shape} {len(self.atoms)} atoms "
            f"base={PosID(self.base)!r}>"
        )


# ---------------------------------------------------------------------------
# Run detection in operation sequences (the wire encoder's side).
# ---------------------------------------------------------------------------


def run_from_ops(ops: Sequence[object],
                 min_atoms: int = RUN_MIN_ATOMS) -> Optional[AtomRun]:
    """The run exactly covering ``ops``, or None.

    ``ops`` must be consecutive inserts from one origin whose
    identifiers realize one run shape under one dis pattern —
    ``place_run`` bursts (prefix shape, per-atom minis) and canonical
    regions (plain paths) both qualify. Detection is exact: the implied
    member identifiers are regenerated and compared, so a false
    positive is impossible.
    """
    count = len(ops)
    if count < min_atoms:
        return None
    first = ops[0]
    if type(first) is not InsertOp:
        return None
    origin = first.origin
    finals: List[Optional[Disambiguator]] = []
    for op in ops:
        if type(op) is not InsertOp or op.origin != origin:
            return None
        finals.append(op.posid.last.dis if op.posid.depth else None)
    dis = _infer_pattern(finals)
    if dis is _NO_PATTERN:
        return None
    # Atom 0 sits at the end of the all-LEFT spine in both shapes, so
    # its path length pins the base length.
    lead = explode_depth(count) - 1
    p0 = first.posid.elements
    if len(p0) <= lead:
        return None  # the region root would be the tree root
    base = tuple(
        element.plain() if index == len(p0) - lead - 1 else element
        for index, element in enumerate(p0[:len(p0) - lead])
    )
    if any(element.dis is not None for element in p0[len(p0) - lead:-1]):
        return None  # interior run elements must be plain
    posids = [op.posid for op in ops]
    for shape in (PREFIX, CANONICAL):
        try:
            candidate = AtomRun(base, tuple(op.atom for op in ops), shape, dis)
        except TreeError:
            return None
        if candidate.posids() == posids:
            return candidate
    return None


#: Sentinel distinguishing "no coherent pattern" from "plain (None)".
_NO_PATTERN = object()


def _infer_pattern(finals: List[Optional[Disambiguator]]):
    """The dis pattern matching the runs' final-element disambiguators,
    in document order, or :data:`_NO_PATTERN`."""
    head = finals[0]
    if head is None:
        if any(dis is not None for dis in finals):
            return _NO_PATTERN
        return None
    if type(head) is Udis:
        site, counter = head.site, head.counter
        for index, dis in enumerate(finals):
            if (type(dis) is not Udis or dis.site != site
                    or dis.counter != counter + index):
                return _NO_PATTERN
        return ("udis", site, counter)
    site = head.site
    for dis in finals:
        if type(dis) is not Sdis or dis.site != site:
            return _NO_PATTERN
    return ("sdis", site)


def find_runs(ops: Sequence[object], origin: SiteId,
              min_atoms: int = RUN_MIN_ATOMS) -> List[Segment]:
    """Segment an operation sequence into runs and singleton operations.

    A maximal window of consecutive inserts from ``origin`` becomes one
    run when it exactly realizes a run shape (the common case: one
    ``insert_text`` burst); otherwise its operations pass through
    unchanged. Deletes, flattens and foreign-origin inserts always pass
    through singly.
    """
    segments: List[Segment] = []
    index, total = 0, len(ops)
    while index < total:
        op = ops[index]
        if type(op) is InsertOp and op.origin == origin:
            end = index
            while (end < total and type(ops[end]) is InsertOp
                   and ops[end].origin == origin):
                end += 1
            run = run_from_ops(ops[index:end], min_atoms)
            if run is not None:
                segments.append(run)
                index = end
                continue
        segments.append(op)
        index += 1
    return segments


# ---------------------------------------------------------------------------
# The shared RLE run record and atom table (wire frame and disk file).
# ---------------------------------------------------------------------------


class AtomTable:
    """Atom payloads referenced by index — the disk format's "separate
    atom file" and the v2 wire frame's atom table are both one of these.

    A run's atoms are appended contiguously, so one ``(count, first)``
    record (:func:`write_run_record`) names them all.
    """

    def __init__(self, payloads: Optional[List[bytes]] = None) -> None:
        self.payloads: List[bytes] = payloads if payloads is not None else []

    def add(self, atom: object) -> int:
        """Append one atom; returns its reference index."""
        text = atom if isinstance(atom, str) else repr(atom)
        self.payloads.append(text.encode("utf-8"))
        return len(self.payloads) - 1

    def add_run(self, atoms: Sequence[object]) -> int:
        """Append a run's atoms contiguously; returns the first index."""
        first = self.add(atoms[0])
        for atom in atoms[1:]:
            self.add(atom)
        return first

    def get(self, index: int) -> str:
        try:
            payload = self.payloads[index]
        except IndexError:
            raise EncodingError(f"atom reference {index} out of bounds")
        return payload.decode("utf-8")

    def get_run(self, first: int, count: int) -> List[str]:
        """Resolve a run record's contiguous references."""
        if first < 0 or first + count > len(self.payloads):
            raise EncodingError("atom run out of bounds")
        return [payload.decode("utf-8")
                for payload in self.payloads[first:first + count]]


def write_run_record(writer, count: int, first: int) -> None:
    """Append the RLE run record: gamma-coded atom count, then the
    gamma-coded first atom reference. This exact pair is the v2 disk
    leaf record and the v2 wire run record — one definition, no drift.
    """
    writer.write_elias_gamma(count)
    writer.write_elias_gamma(first + 1)


def read_run_record(reader) -> Tuple[int, int]:
    """Read a record written by :func:`write_run_record`."""
    count = reader.read_elias_gamma()
    first = reader.read_elias_gamma() - 1
    return count, first


def write_leaf_record(writer, atoms: Sequence[object], dead: int,
                      write_live) -> None:
    """Append an array-leaf record: the dead-slot bitmap sidecar — one
    flag bit, and when set, gamma(dead count) + gamma-coded offset
    deltas — then the leaf's *live* atoms through ``write_live(writer,
    live_atoms)``. The disk v3 leaf record (atoms as a run record into
    the atom file) and the tree-walk state frame (atoms inline) are
    both this record; only the atom payload differs."""
    if not dead:
        writer.write_bit(0)
        write_live(writer, atoms)
        return
    writer.write_bit(1)
    offsets = [i for i in range(len(atoms)) if (dead >> i) & 1]
    writer.write_elias_gamma(len(offsets))
    previous = -1
    for offset in offsets:
        writer.write_elias_gamma(offset - previous)
        previous = offset
    write_live(writer, [atom for offset, atom in enumerate(atoms)
                        if not (dead >> offset) & 1])


def read_leaf_record(reader, read_live) -> Tuple[List[object], int]:
    """Read a record written by :func:`write_leaf_record`: ``(atoms,
    dead)`` with None at each dead offset. ``read_live(reader)`` returns
    the live atoms. Offsets are bounded by the slot count before the
    bitmap is built, so a corrupt offset cannot allocate a huge int."""
    offsets: List[int] = []
    if reader.read_bit():
        ndead = reader.read_elias_gamma()
        if ndead > reader.remaining:
            raise EncodingError("leaf dead count exceeds the bits left")
        position = -1
        for _ in range(ndead):
            position += reader.read_elias_gamma()
            offsets.append(position)
    live = read_live(reader)
    if not offsets:
        return live, 0
    slots = len(live) + len(offsets)
    if offsets[-1] >= slots:
        raise EncodingError("leaf dead bitmap out of bounds")
    dead = 0
    atoms: List[object] = []
    it = iter(live)
    for offset in offsets:
        dead |= 1 << offset
    for slot in range(slots):
        atoms.append(None if (dead >> slot) & 1 else next(it))
    return atoms, dead


# ---------------------------------------------------------------------------
# Document state segments (anti-entropy / state transfer).
# ---------------------------------------------------------------------------

#: Smallest canonical region shipped as a state run. State runs carry
#: no dis pattern, so even short ones win; the floor only avoids paying
#: a base path for trivial fragments.
STATE_RUN_MIN_ATOMS = 4


class RegionFilter:
    """A prefix cover over tree regions: what a ``SyncDelta``'s region
    frame (:func:`repro.core.encoding.encode_state`) carries.

    A region is a subtree named by its root path *bits* (disambiguators
    excluded: mini-node siblings share a region, which only widens the
    cover). The filter answers one question — may this subtree hold
    state the cover names? — with the mutual-prefix test: region ``X``
    and subtree ``S`` intersect iff one's bits prefix the other's
    (``X`` inside ``S``, or ``S`` inside ``X``). Ancestor spines of a
    covered region therefore pass too; the extra slots they admit are
    idempotent duplicates for a merging receiver, never a correctness
    cost. The region list is minimised on construction: a region whose
    prefix is already covered adds nothing.

    A walk from the root tests one branch bit per level: each node's
    *cover* (:meth:`root_cover`, then :meth:`narrow`) is None inside a
    region, else the regions extending its path — ``()``: disjoint.
    """

    def __init__(self, regions: Sequence[Tuple[int, ...]]) -> None:
        kept: List[Tuple[int, ...]] = []
        for bits in sorted(set(regions), key=len):
            if not any(bits[: len(prior)] == prior for prior in kept):
                kept.append(bits)
        self._regions = tuple(kept)

    def __len__(self) -> int:
        return len(self._regions)

    @property
    def regions(self) -> Tuple[Tuple[int, ...], ...]:
        return self._regions

    @property
    def whole_document(self) -> bool:
        """True when the cover names the root (everything admitted)."""
        return () in self._regions

    def root_cover(self) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """The root's cover."""
        return None if self.whole_document else self._regions

    @staticmethod
    def narrow(cover, depth: int, bit: int):
        """The cover of the child at ``bit`` below a node at ``depth``
        with ``cover`` (a mini-node's children share its host's path)."""
        if cover is None:
            return None
        kept = []
        for region in cover:
            if region[depth] == bit:
                if len(region) == depth + 1:
                    return None
                kept.append(region)
        return tuple(kept)

    def __repr__(self) -> str:
        return f"<RegionFilter {len(self._regions)} regions>"


def iter_state_segments(tree, origin: SiteId,
                        min_run_atoms: int = STATE_RUN_MIN_ATOMS
                        ) -> List[Segment]:
    """The document state as segments in identifier order.

    Collapsed regions (:class:`ArrayLeaf`) and quiescent subtrees in
    canonical exploded form become :class:`AtomRun` segments *without
    exploding or walking per atom*; every other live slot becomes an
    :class:`InsertOp`; SDIS tombstones become :class:`DeleteOp` records
    (identifier used, no atom). Run eligibility: the subtree hangs at a
    plain child of a position node (never under a mini-node — a leaf
    cannot attach there), is not the root, passes
    :func:`collect_leaf_slots` fully live, and holds ``min_run_atoms`` atoms.

    No sync path ships segments any more: this is the reference the
    tree-walk frame is tested against, and the per-op count of
    :mod:`repro.metrics.overhead`.
    """
    segments: List[Segment] = []
    # Explicit in-order stack (deep trees exceed the recursion limit).
    # Frames: ("sub", child, elements, plain_child) descends into a
    # subtree; ("node", node, elements) emits a node's slot, minis and
    # right side after its left subtree; ("slot", slot, posid_elements)
    # emits one atom slot.
    stack: List[Tuple] = [("node", tree.root, ())]
    while stack:
        frame = stack.pop()
        kind = frame[0]
        if kind == "sub":
            _, child, elements, plain_child = frame
            if isinstance(child, ArrayLeaf):
                if child.dead == 0:
                    segments.append(AtomRun(elements, tuple(child.atoms)))
                else:
                    # A tombstone-bearing leaf cannot travel as one run
                    # (a run's identifiers are all live): emit per-slot
                    # records, dead slots as tombstones.
                    dead = child.dead
                    for offset, (posid, atom) in enumerate(
                            zip(child.id_posids(), child.atoms)):
                        if (dead >> offset) & 1:
                            segments.append(DeleteOp(posid, origin))
                        else:
                            segments.append(InsertOp(posid, atom, origin))
                continue
            if plain_child:
                harvest = collect_leaf_slots(child, min_run_atoms)
                if harvest is not None:
                    segments.append(AtomRun(elements, tuple(harvest[0])))
                    continue
            stack.append(("node", child, elements))
        elif kind == "node":
            _, node, elements = frame
            # Push in reverse of emission order: right child, minis
            # (reversed), the plain slot, left child.
            if node.right is not None:
                stack.append(("sub", node.right,
                              elements + (PathElement(RIGHT),), True))
            for mini in reversed(node.mini_nodes()):
                if not elements:
                    raise TreeError(
                        "mini-node attached to the root position node"
                    )  # pragma: no cover - the tree never builds one
                mini_elements = elements[:-1] + (
                    PathElement(elements[-1].bit, mini.dis),
                )
                if mini.right is not None:
                    stack.append(("sub", mini.right,
                                  mini_elements + (PathElement(RIGHT),),
                                  False))
                stack.append(("slot", mini, mini_elements))
                if mini.left is not None:
                    stack.append(("sub", mini.left,
                                  mini_elements + (PathElement(LEFT),),
                                  False))
            stack.append(("slot", node, elements))
            if node.left is not None:
                stack.append(("sub", node.left,
                              elements + (PathElement(LEFT),), True))
        else:  # "slot"
            _, slot, elements = frame
            atom = slot.atom
            if atom is DEAD_ATOM:
                segments.append(DeleteOp(PosID(elements), origin))
            elif atom is not NO_ATOM:
                segments.append(InsertOp(PosID(elements), atom, origin))
    return segments


def load_state_segments(tree, segments: Sequence[Segment],
                        keep_tombstones: bool) -> None:
    """Rebuild an **empty** tree from state segments.

    Canonical plain runs attach directly as :class:`ArrayLeaf` children
    — the receiving replica holds the quiescent region in collapsed
    form from the first moment, paying zero per-atom structure. Other
    segments materialize normally. Counts are recomputed once at the
    end (one bottom-up pass; leaves are their own ground truth).
    """
    root = tree.root
    if root.id_count or root.minis or root.left or root.right:
        raise TreeError("state segments must load into an empty tree")
    height = 0
    for segment in segments:
        if isinstance(segment, AtomRun):
            leaf = _attach_run_leaf(tree, segment)
            if leaf is not None:
                depth = len(segment.base) - 1 + leaf.implicit_depth
                if depth > height:
                    height = depth
                continue
            for op in segment.insert_ops(0):
                _load_live(tree, op.posid, op.atom)
        elif isinstance(segment, InsertOp):
            _load_live(tree, segment.posid, segment.atom)
        elif isinstance(segment, DeleteOp):
            if not keep_tombstones:
                raise TreeError(
                    "tombstone segment in a discard-mode (UDIS) document"
                )
            slot = tree.materialize(segment.posid)
            if slot.atom is not NO_ATOM:
                raise TreeError(
                    f"state segments collide at {segment.posid!r}"
                )
            slot.atom = DEAD_ATOM
        else:
            raise TreeError(f"unknown state segment {segment!r}")
    tree.recount_subtree(tree.root)
    if height > tree.height:
        tree.height = height


def _attach_run_leaf(tree, run: AtomRun) -> Optional[ArrayLeaf]:
    """Attach a canonical plain run as an ArrayLeaf; None when the run
    cannot live in a leaf (non-canonical shape, dis pattern, or a
    mini-node container) and must materialize instead."""
    if run.shape != CANONICAL or run.dis is not None:
        return None
    if len(run.base) >= 2 and run.base[-2].dis is not None:
        return None  # container is a mini-node: leaves cannot hang there
    container = tree.materialize(PosID(run.base[:-1]))
    if isinstance(container, MiniNode):  # pragma: no cover - guarded above
        return None
    bit = run.base[-1].bit
    if container.child(bit) is not None:
        raise TreeError("state run overlaps earlier segments")
    leaf = ArrayLeaf(container, bit, list(run.atoms), tree)
    container.set_child(bit, leaf)
    return leaf


def _load_live(tree, posid: PosID, atom: object) -> None:
    slot = tree.materialize(posid)
    if slot.atom is not NO_ATOM:
        raise TreeError(f"state segments collide at {posid!r}")
    slot.atom = atom
