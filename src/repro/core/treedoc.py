"""The Treedoc document replica: the library's main entry point.

A :class:`Treedoc` is one replica of the shared edit buffer. Local edits
(`insert`, `delete`, `insert_text`, `delete_range`) allocate fresh
PosIDs and return the operations to broadcast; remote operations are
replayed with ``apply``.
Because the type is a CRDT, replicas that apply the same set of
operations in any happened-before-compatible order converge (section 2.2).

Example
-------

    >>> from repro import Treedoc
    >>> a, b = Treedoc(site=1), Treedoc(site=2)
    >>> op1 = a.insert(0, "hello")
    >>> op2 = b.insert(0, "world")   # concurrent with op1
    >>> a.apply(op2); b.apply(op1)
    >>> a.text() == b.text()
    True
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.alloc import Allocator
from repro.core.disambiguator import DisambiguatorFactory, SiteId, Udis
from repro.core.flatten import (
    ColdRegionFinder,
    find_collapsible,
    flatten_subtree,
    resolve_region,
    subtree_atoms,
)
from repro.core.node import (
    DEAD_ATOM,
    NO_ATOM,
    ArrayLeaf,
    AtomSlot,
    MiniNode,
    PathMemo,
    PosNode,
    collect_leaf_slots,
    parent_host,
    slot_host,
    slot_is_live,
    slot_posid,
    slot_posids,
)
from repro.core.ops import (
    DeleteOp,
    FlattenOp,
    InsertOp,
    OpBatch,
    Operation,
    content_digest,
)
from repro.core.path import PosID
from repro.core.tree import TreedocTree
from repro.errors import MissingAtomError, TreeError
from repro.util.text import join_atoms


@dataclass(frozen=True)
class MergeOutcome:
    """What :meth:`Treedoc.merge_segments` changed."""

    #: Atoms newly placed live (re-mints included).
    placed: int
    #: Identifiers whose tombstone a re-minted atom replaced.
    revived: Tuple[PosID, ...]
    #: Tombstones materialized for inserts that never came here.
    tombstones: int


class Treedoc:
    """One replica of a Treedoc shared buffer.

    Parameters
    ----------
    site:
        This replica's site identifier (6-byte integer space).
    mode:
        ``"udis"`` (default) for unique ``(counter, site)`` disambiguators
        with immediate discard of deleted leaves, or ``"sdis"`` for
        site-only disambiguators with tombstones (section 3.3).
    balanced:
        Enable the section 4.1 allocation balancing (log-growth on
        appends, empty-slot reuse, run grouping).
    collapse_every:
        When set to ``k``, run the mixed-storage collapse pass
        (:meth:`collapse_cold`) every ``k`` revision boundaries
        (:meth:`note_revision`): quiescent canonical regions become
        zero-metadata array leaves, exploded implicitly on touch
        (section 4.2). ``None`` (default) leaves collapse explicit.
    """

    def __init__(self, site: SiteId, mode: str = "udis",
                 balanced: bool = True,
                 collapse_every: Optional[int] = None,
                 collapse_min_age: int = 2,
                 collapse_min_atoms: int = 8) -> None:
        if mode not in (DisambiguatorFactory.UDIS, DisambiguatorFactory.SDIS):
            raise ValueError(f"unknown disambiguator mode {mode!r}")
        if collapse_every is not None and collapse_every < 1:
            raise ValueError("collapse_every must be at least 1")
        self.site = site
        self.mode = mode
        self.tree = TreedocTree()
        self.allocator = Allocator(self.tree, balanced=balanced)
        self.collapse_every = collapse_every
        self.collapse_min_age = collapse_min_age
        self.collapse_min_atoms = collapse_min_atoms
        self._dis_factory = DisambiguatorFactory(site, mode)
        #: Monotonic revision counter used by the cold-region heuristic;
        #: bump with :meth:`note_revision` at workload-revision boundaries.
        self.revision = 0
        self._touch_stamps: Dict[int, int] = {}
        #: Nodes stamped during the current revision, keyed by id with a
        #: strong reference: the reference keeps a pruned node alive
        #: until the revision boundary, so an id() can never be reused
        #: (and mistaken for "already stamped") within one revision.
        self._touch_seen: Dict[int, object] = {}
        #: Local operation counter: every locally generated insert and
        #: delete claims one sequence number, so the batches this
        #: replica mints carry non-overlapping, increasing seq ranges.
        self._op_seq = 0
        #: Last rendered text, keyed by (generation, separator).
        self._text_cache: Optional[tuple] = None
        #: Touch log for the incremental auto-collapse sweep: id ->
        #: position node touched since the last sweep (populated only
        #: when ``collapse_every`` is configured). Strong references,
        #: like ``_touch_seen``: a pruned node's id must not be recycled
        #: and mistaken for a pending live node.
        self._sweep_pending: Dict[int, PosNode] = {}
        #: Re-collapse hysteresis: region branch bits -> [explosion
        #: count, revision of the last explosion], stalest first.
        #: Bounded by ``_HISTORY_LIMIT``; entries decay once a region
        #: stays quiet past its damped window (see
        #: :meth:`_required_age`).
        self._explode_history: Dict[tuple, List[int]] = {}
        #: The first auto-collapse boundary (and the first after a state
        #: swap) must scan the whole tree — the touch log only covers
        #: edits made since it started recording.
        self._needs_full_sweep = True
        # Weak, and a *plain* weakref (gc-opaque — ``WeakMethod`` leaks
        # its module globals through ``gc.get_referents``): the tree
        # must not reference its owning document — a tree-rooted
        # reachability walk (resident-byte accounting, serializers)
        # would otherwise pull in the whole facade, and husk trees
        # would pin dead documents alive.
        self.tree._explode_listener = weakref.ref(self)

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return self.tree.live_length

    @property
    def generation(self) -> int:
        """Monotonic counter of visible-content changes (downstream
        layers key derived caches — text, editor lines, snapshots —
        on it)."""
        return self.tree.generation

    @property
    def op_seq(self) -> int:
        """Next unclaimed local operation sequence number. Durable
        recovery persists and restores it (:meth:`restore_counters`), so
        the batches a restarted replica mints can never reuse a seq
        range from before the crash."""
        return self._op_seq

    @property
    def dis_counter(self) -> int:
        """The UDIS mint counter (0 for SDIS documents). Persisted by
        the durable store alongside :attr:`op_seq`: identifier identity
        across a crash depends on never re-minting a (counter, site)
        pair."""
        return self._dis_factory.counter

    def mint_counters(self) -> Dict[str, int]:
        """The mint counters a state frame does not carry, as the
        durable store persists them beside every checkpoint."""
        return {"op_seq": self._op_seq, "dis_counter": self.dis_counter}

    def restore_counters(self, counters: Dict[str, object],
                         own_events: Iterable[object] = ()) -> None:
        """Advance the mint counters after a restart (recovery only —
        they are monotonic, never rewound): to the persisted
        ``counters`` (see :meth:`mint_counters`), then past every event
        this replica minted in the replayed log tail. A batch carries
        its absolute seq range, a bare operation claimed one number,
        and every own UDIS disambiguator its counter."""
        op_seq = max(self._op_seq, int(counters.get("op_seq", 0) or 0))
        factory = self._dis_factory
        factory.restore_counter(int(counters.get("dis_counter", 0) or 0))
        for event in own_events:
            if isinstance(event, OpBatch):
                op_seq = max(op_seq, event.seq_end)
                ops = event.ops
            else:
                op_seq += 1
                ops = (event,)
            for op in ops:
                posid = op.posid if hasattr(op, "posid") else op.path
                for element in posid.elements:
                    dis = element.dis
                    if isinstance(dis, Udis) and dis.site == self.site:
                        factory.restore_counter(dis.counter + 1)
        self._op_seq = op_seq

    def atoms(self) -> List[object]:
        """The visible document as a list of atoms: one O(n) walk per
        call (collapsed regions contribute their arrays whole). Repeat
        readers go through :meth:`text`, which caches per generation."""
        return self.tree.atoms()

    def text(self, separator: str = "") -> str:
        """The visible document as a string (atoms joined).

        Cached against the tree generation, and joined without per-atom
        ``str()`` calls when every atom already is one (character and
        paragraph documents — the common case).
        """
        cached = self._text_cache
        generation = self.tree.generation
        if (
            cached is not None
            and cached[0] == generation
            and cached[1] == separator
        ):
            return cached[2]
        text = join_atoms(separator, self.tree.atoms())
        self._text_cache = (generation, separator, text)
        return text

    def posid_at(self, index: int) -> PosID:
        """PosID of the visible atom at ``index`` (a pure read: served
        from a collapsed region's implied paths without exploding)."""
        return self.tree.live_posid_at(index)

    def atom_at(self, index: int) -> object:
        """The visible atom at ``index`` (a pure read: served from a
        collapsed region's array without exploding)."""
        return self.tree.live_atom_at(index)

    def posids(self) -> List[PosID]:
        """PosIDs of all visible atoms, in document order."""
        return self.tree.posids()

    @property
    def keeps_tombstones(self) -> bool:
        """True under SDIS, where deleted identifiers stay used."""
        return self.mode == DisambiguatorFactory.SDIS

    # -- local edits ---------------------------------------------------------------

    def insert(self, index: int, atom: object) -> InsertOp:
        """Insert ``atom`` so it becomes the visible atom at ``index``.

        Returns the operation to broadcast to other replicas.
        """
        p_slot, f_slot = self._neighbours(index)
        self._claim_seqs(1)
        slot = self.allocator.place_between(p_slot, f_slot,
                                            self._dis_factory.fresh())
        self.tree.set_live(slot, atom)
        posid = slot_posid(slot)
        self._touch(slot)
        return InsertOp(posid, atom, self.site)

    def insert_text(self, index: int, atoms: Sequence[object]) -> OpBatch:
        """Insert a consecutive run of atoms starting at ``index``;
        returns one :class:`OpBatch` to broadcast.

        This is the batch fast path: with balancing enabled the run is
        grouped into one minimal subtree (section 5.1's balancing
        variant), and the live-index/length bookkeeping is deferred to
        the end of the batch instead of being maintained per atom.
        """
        atoms = list(atoms)
        if not atoms:
            return OpBatch.build((), self.site, self._claim_seqs(0))
        p_slot, f_slot = self._neighbours(index)
        # Sequence numbers claim only after validation: a failed edit
        # must not leave a gap in this origin's batch seq ranges.
        seq_start = self._claim_seqs(len(atoms))
        dises = [self._dis_factory.fresh() for _ in atoms]
        slots = self.allocator.place_run(p_slot, f_slot, dises)
        site = self.site
        ops = [InsertOp(posid, atom, site)
               for posid, atom in zip(slot_posids(slots), atoms)]
        self.tree.begin_bulk()
        try:
            for slot, atom in zip(slots, atoms):
                self.tree.set_live(slot, atom)
        finally:
            self.tree.end_bulk()
        self._touch_many(slots)
        return OpBatch.build(ops, self.site, seq_start)

    def delete(self, index: int) -> DeleteOp:
        """Delete the visible atom at ``index``; returns the operation."""
        slot = self.tree.live_slot_at(index)
        self._claim_seqs(1)
        posid = slot_posid(slot)
        self._touch(slot)
        if self.keeps_tombstones:
            self.tree.make_tombstone(slot)
        else:
            self.tree.discard(slot)
        return DeleteOp(posid, self.site)

    def delete_range(self, start: int, end: int) -> OpBatch:
        """Delete the visible atoms in ``[start, end)``; returns one
        :class:`OpBatch` to broadcast.

        The range is resolved once — an index descent for ``start``
        plus successor steps (:meth:`TreedocTree.live_slice`) — instead
        of re-resolving a live index per deleted atom, and count
        maintenance is deferred to batch end.
        """
        length = self.tree.live_length
        if not 0 <= start <= end <= length:
            raise IndexError(f"range [{start}, {end}) out of range 0..{length}")
        count = end - start
        seq_start = self._claim_seqs(count)
        if count == 0:
            return OpBatch.build((), self.site, seq_start)
        slots = self.tree.live_slice(start, end)
        ops = tuple(DeleteOp(posid, self.site) for posid in slot_posids(slots))
        self._touch_many(slots)
        self.tree.begin_bulk()
        try:
            for s in slots:
                if self.keeps_tombstones:
                    self.tree.make_tombstone(s)
                else:
                    self.tree.discard(s)
        finally:
            self.tree.end_bulk()
        return OpBatch.build(ops, self.site, seq_start)

    def replace_range(self, start: int, end: int,
                      atoms: Sequence[object]) -> OpBatch:
        """Replace ``[start, end)`` by ``atoms`` (a modify: delete +
        insert, the paper's model of modification); returns one batch
        covering both halves."""
        deleted = self.delete_range(start, end)
        inserted = self.insert_text(start, atoms)
        return deleted.merge(inserted)

    def delete_posid(self, posid: PosID) -> DeleteOp:
        """Delete by identifier (initiator must hold the atom)."""
        slot = self.tree.lookup(posid)
        if slot is None or not slot_is_live(slot):
            raise MissingAtomError(f"no live atom at {posid!r}")
        self._claim_seqs(1)
        self._touch(slot)
        if self.keeps_tombstones:
            self.tree.make_tombstone(slot)
        else:
            self.tree.discard(slot)
        return DeleteOp(posid, self.site)

    # -- remote replay ----------------------------------------------------------------

    def apply(self, op: Operation,
              remint: Optional[Callable[[PosID], bool]] = None) -> None:
        """Replay a (remote) operation or batch. Operations must arrive
        in an order compatible with happened-before; the replication
        layer's causal broadcast guarantees it. ``remint`` decides
        whether an insert landing on a tombstone re-mints a purged
        identifier (see :meth:`TreedocTree.apply_insert`)."""
        if isinstance(op, OpBatch):
            self.apply_batch(op, remint)
        elif isinstance(op, InsertOp):
            slot = self.tree.apply_insert(op.posid, op.atom, remint)
            self._touch(slot)
        elif isinstance(op, DeleteOp):
            slot = self.tree.apply_delete(
                op.posid, keep_tombstone=self.keeps_tombstones
            )
            if slot is not None:
                self._touch(slot)
        elif isinstance(op, FlattenOp):
            self.apply_flatten(op)
        else:
            raise TreeError(f"unknown operation {op!r}")

    def apply_batch(self, batch: OpBatch,
                    remint: Optional[Callable[[PosID], bool]] = None
                    ) -> None:
        """Replay a remote batch with deferred index maintenance.

        Semantically identical to applying the batch's operations one by
        one, but per-operation spine walks (live/id count propagation
        and cold-region touch stamps) are coalesced: shared ancestors
        are visited once per batch instead of once per operation.
        Flatten operations flush the bulk section around themselves,
        since they recount structure.
        """
        ops = batch.ops if isinstance(batch, OpBatch) else tuple(batch)
        if len(ops) <= 1:
            for op in ops:
                self.apply(op, remint)
            return
        touched: List[AtomSlot] = []
        self.tree.begin_bulk()
        try:
            for op in ops:
                if isinstance(op, InsertOp):
                    touched.append(
                        self.tree.apply_insert(op.posid, op.atom, remint))
                elif isinstance(op, DeleteOp):
                    slot = self.tree.apply_delete(
                        op.posid, keep_tombstone=self.keeps_tombstones
                    )
                    if slot is not None:
                        touched.append(slot)
                elif isinstance(op, FlattenOp):
                    self.tree.end_bulk()
                    self._touch_many(touched)
                    touched = []
                    self.apply_flatten(op)
                    self.tree.begin_bulk()
                else:
                    raise TreeError(f"unknown operation {op!r}")
        finally:
            self.tree.end_bulk()
        self._touch_many(touched)

    def apply_all(self, ops: Iterable[Operation]) -> None:
        """Replay a sequence of operations (or batches)."""
        for op in ops:
            self.apply(op)

    # -- flatten (section 4.2) -----------------------------------------------------------

    def make_flatten(self, path: PosID) -> FlattenOp:
        """Build a flatten operation for the subtree at ``path`` from this
        replica's current state (used by the commitment initiator)."""
        node = resolve_region(self.tree, path)
        atoms = tuple(subtree_atoms(node))
        return FlattenOp(path, content_digest(atoms), self.site)

    def apply_flatten(self, op: FlattenOp) -> List[object]:
        """Apply a committed flatten: rebuild the subtree canonically.

        Verifies the initiator's content digest; a mismatch means the
        commitment protocol admitted a concurrent edit and is a bug.
        The verification walk's atoms feed the rebuild directly — one
        region walk and one digest per application.
        """
        node = resolve_region(self.tree, op.path)
        atoms = subtree_atoms(node)
        if content_digest(tuple(atoms)) != op.digest:
            raise TreeError(
                "flatten content mismatch: concurrent edit slipped past "
                "the commitment protocol"
            )
        result = flatten_subtree(self.tree, op.path, atoms=atoms)
        self._touch_region(op.path)
        return result

    def flatten_local(self, path: PosID) -> FlattenOp:
        """Initiate-and-apply a flatten locally (single-replica use, e.g.
        trace replay benchmarks; distributed use goes through
        :mod:`repro.replication.commit`).

        The initiator just computed the digest from this very state, so
        the region is walked and digested once, not re-verified against
        itself.
        """
        node = resolve_region(self.tree, path)
        atoms = subtree_atoms(node)
        op = FlattenOp(path, content_digest(tuple(atoms)), self.site)
        flatten_subtree(self.tree, path, atoms=atoms)
        self._touch_region(path)
        return op

    def flatten_cold(self, min_age: int = 1, min_slots: int = 4,
                     min_depth: int = 1) -> Optional[FlattenOp]:
        """Find the largest cold region and flatten it locally.

        Returns the operation, or None when nothing qualifies.
        ``min_depth`` > 1 emulates the paper's weaker partial heuristic
        (see :class:`repro.core.flatten.ColdRegionFinder`).
        """
        finder = ColdRegionFinder(min_age=min_age, min_slots=min_slots,
                                  min_depth=min_depth)
        path = finder.find(self.tree, self._touch_stamps, self.revision)
        if path is None:
            return None
        return self.flatten_local(path)

    def note_revision(self) -> int:
        """Mark a workload-revision boundary for the cold-region clock.

        When ``collapse_every`` is configured, every ``k``-th boundary
        also runs the mixed-storage collapse pass — the revision
        boundary is where quiescence is defined (the stamps are
        revision-granular), and it sits outside any bulk section, so the
        deferred pass composes with batch flushes the same way count
        propagation does.
        """
        self.revision += 1
        self._touch_seen.clear()
        if self.collapse_every and self.revision % self.collapse_every == 0:
            if self._needs_full_sweep:
                self.collapse_cold()
            else:
                self._collapse_cold_incremental()
        return self.revision

    # -- mixed storage (section 4.2) ---------------------------------------------

    def collapse_cold(self, min_age: Optional[int] = None,
                      min_atoms: Optional[int] = None) -> List[PosID]:
        """Collapse every cold canonical region into an array leaf.

        Purely local — the canonical shape makes a later implicit
        explode rebuild the identical structure, so no replicated
        operation exists and replicas may collapse independently
        (section 4.2.1). Under SDIS, stable-tombstone slots are folded
        into the leaf's dead bitmap instead of blocking the collapse.
        Regions that recently exploded are withheld until they have
        stayed cold for their damped window (:meth:`_required_age`), so
        a ping-ponging hot boundary does not thrash collapse/explode.
        Returns the collapsed regions' plain paths.
        """
        base_age = self.collapse_min_age if min_age is None else min_age
        if min_age is None and min_atoms is None:
            # A full default-parameter pass re-baselines the incremental
            # sweep: everything cold as of now is handled (collapsed or
            # re-queued below). Still-warm pending entries must survive
            # the baseline — they are not cold yet, so this scan will
            # not touch them, and nothing later would re-queue a region
            # that simply goes quiet.
            self._needs_full_sweep = False
            stamps = self._touch_stamps
            self._sweep_pending = {
                key: node for key, node in self._sweep_pending.items()
                if (stamp := stamps.get(id(node))) is not None
                and self.revision - stamp < base_age
            }
        withhold = None
        if self._explode_history:
            def withhold(bits, node, age):
                if age >= self._required_age(bits, base_age):
                    return False
                if self.collapse_every is not None:
                    # Revisit once the damped window has passed — the
                    # region stays quiet, so no touch would re-queue it.
                    self._sweep_pending[id(node)] = node
                return True
        regions = find_collapsible(
            self.tree,
            self._touch_stamps,
            self.revision,
            min_age=base_age,
            min_atoms=(
                self.collapse_min_atoms if min_atoms is None else min_atoms
            ),
            allow_tombstones=self.keeps_tombstones,
            withhold=withhold,
        )
        for _, node, atoms, dead in regions:
            self._purge_region_stamps(node)
            self.tree.collapse_subtree(node, atoms=atoms, dead=dead)
        return [path for path, _, _, _ in regions]

    def _collapse_cold_incremental(self) -> List[PosID]:
        """The auto-collapse sweep, in O(touched regions): instead of
        re-scanning the whole tree (:func:`find_collapsible`), climb
        from the nodes touched since the last sweep (``_sweep_pending``)
        to their highest cold, plain-attached ancestors and harvest
        canonical pockets inside those candidates only.

        Correct because every touch stamps its full spine
        (:meth:`_touch`), so a node's own stamp bounds its subtree's
        newest stamp and coldness is judged from region roots alone; and
        because anything cold at the last full pass was collapsed or
        re-queued then — a region cannot go cold unobserved.
        """
        stamps = self._touch_stamps
        revision = self.revision
        base_age = self.collapse_min_age
        root = self.tree.root
        pending = self._sweep_pending
        keep: Dict[int, PosNode] = {}
        candidates: Dict[int, PosNode] = {}
        for key, node in pending.items():
            st = stamps.get(id(node))
            if st is not None and revision - st < base_age:
                keep[key] = node  # still warm: revisit next sweep
                continue
            if node is root:
                # A whole-document rebuild queues the root (there is no
                # higher region): scan from it, pockets only — the root
                # itself never collapses (full-pass parity).
                candidates[id(root)] = root
                continue
            current = node
            region = None
            while current is not root:
                container, bit = current.parent, current.side
                if container is None:
                    region = None  # floating husk: nothing here is live
                    break
                if isinstance(container, MiniNode):
                    if container.child(bit) is not current:
                        region = None
                    # A mini link: every ancestor holds a mini-node and
                    # can never be canonical — stop climbing.
                    break
                if container.child(bit) is not current:
                    # Pruned/collapsed/flattened away: what was found so
                    # far is outside the tree, but the container itself
                    # may still be a live cold region — restart there.
                    region = None
                    current = container
                    continue
                st = stamps.get(id(current))
                if st is not None and revision - st < base_age:
                    break  # warm ancestor: the maximal cold region is below
                region = current
                current = container
            if region is not None:
                candidates[id(region)] = region
        self._sweep_pending = keep
        collapsed: List[PosID] = []
        min_atoms = self.collapse_min_atoms
        allow_tombstones = self.keeps_tombstones
        for region in candidates.values():
            if region is root:
                stack = [child for child in (root.left, root.right)
                         if child is not None
                         and type(child) is not ArrayLeaf]
            else:
                container = region.parent
                if container is None:
                    continue
                if container.child(region.side) is not region:
                    continue  # detached by an earlier collapse this pass
                # Descend for canonical pockets: the region is cold but
                # may be hot-shaped (same rule as the full scan).
                stack = [region]
            while stack:
                node = stack.pop()
                harvest = collect_leaf_slots(node, min_atoms,
                                             allow_tombstones)
                if harvest is None:
                    for child in (node.left, node.right):
                        if child is not None and type(child) is not ArrayLeaf:
                            stack.append(child)
                    continue
                posid = slot_posid(node)
                if self._explode_history:
                    st = stamps.get(id(node))
                    age = revision - st if st is not None else revision + 1
                    if age < self._required_age(posid.bits(), base_age):
                        # Damped: revisit once the extra coldness accrues.
                        self._sweep_pending[id(node)] = node
                        continue
                atoms, dead = harvest
                self._purge_region_stamps(node)
                self.tree.collapse_subtree(node, atoms=atoms, dead=dead)
                collapsed.append(posid)
        return collapsed

    #: Hysteresis caps: the damped window doubles per recorded explosion
    #: up to ``min_age << _DAMP_LIMIT``; at most ``_HISTORY_LIMIT``
    #: regions are tracked (stalest evicted first).
    _DAMP_LIMIT = 6
    _HISTORY_LIMIT = 64

    def _on_explode(self, node: PosNode) -> None:
        """Tree callback fired after a collapsed leaf explodes back to
        tree form: feed the re-collapse hysteresis (the region just
        proved it was not cold) and queue it for the incremental
        sweep."""
        bits = slot_posid(node).bits()
        history = self._explode_history
        entry = history.pop(bits, None)
        if entry is not None:
            if entry[0] < self._DAMP_LIMIT:
                entry[0] += 1
            entry[1] = self.revision
        else:
            if len(history) >= self._HISTORY_LIMIT:
                del history[next(iter(history))]
            entry = [1, self.revision]
        # Re-inserted at the end: the dict stays in recency order, so
        # the stalest region is always the first key.
        history[bits] = entry
        if self.collapse_every is not None:
            self._sweep_pending[id(node)] = node

    def _required_age(self, bits: tuple, base: int) -> int:
        """Re-collapse hysteresis: the coldness (in revisions) the
        region at ``bits`` must show before collapsing again. Each
        recorded explosion of an overlapping region (ancestor or
        descendant — collapse granularity shifts, so keys are matched on
        their mutual prefix) doubles the requirement; records decay once
        the region stays quiet past its own damped window."""
        required = base
        history = self._explode_history
        revision = self.revision
        for key in list(history):
            count, last = history[key]
            if revision - last > (base << (count + 1)):
                del history[key]
                continue
            shorter = len(key) if len(key) < len(bits) else len(bits)
            if key[:shorter] == bits[:shorter]:
                age = base << count
                if age > required:
                    required = age
        return required

    def _purge_region_stamps(self, node) -> None:
        """Drop cold-clock bookkeeping for a subtree about to be freed
        (collapse replaces it with an array leaf): stale ``id()`` keys
        must not linger in ``_touch_stamps`` or ``_sweep_pending``, and
        ``_touch_seen`` must not keep the dead nodes alive until the
        next revision."""
        stamps = self._touch_stamps
        seen = self._touch_seen
        pending = self._sweep_pending
        for freed in node.iter_nodes():
            key = id(freed)
            stamps.pop(key, None)
            seen.pop(key, None)
            pending.pop(key, None)

    @property
    def array_leaf_count(self) -> int:
        """Collapsed quiescent regions currently held as arrays."""
        return len(self.tree.array_leaves())

    # -- state transfer (anti-entropy catch-up) ----------------------------------

    def capture_state(self) -> "DocumentState":
        """Snapshot the whole document as one tree-walk state frame.

        The frame is the tree itself: node positions are implied by the
        walk, array leaves (and quiescent subtrees still in canonical
        tree form) travel as inline atom runs with their dead-slot
        bitmaps, so no atom pays a per-atom identifier. The frame is
        digest-stamped, so :meth:`load_state` verifies transport
        integrity.
        """
        from repro.core.encoding import encode_state

        digest = content_digest(tuple(self.tree.atoms()))
        return encode_state(self.tree, self.mode, self.site, digest)

    def load_state(self, state: "DocumentState") -> int:
        """Replace this replica's document with a state snapshot.

        The decoder builds the sender's nodes, mini-nodes and array
        leaves directly — the receiver holds every collapsed region
        collapsed, dead-slot bitmaps included, and is identifier-
        identical to the source from the first read. Older segment
        frames still load (runs as leaves, the rest materialized).
        Returns the number of visible atoms loaded. The caller owns the
        causal safety argument (the snapshot must dominate this
        replica's state — see
        :meth:`repro.replication.site.ReplicaSite.sync_from`).
        """
        from repro.core.encoding import decode_state
        from repro.errors import SyncError

        if state.mode != self.mode:
            raise SyncError(
                f"state snapshot is {state.mode}, this replica is {self.mode}"
            )
        _, _, fresh = decode_state(state)
        atoms = tuple(fresh.atoms())
        if content_digest(atoms) != state.digest:
            raise SyncError(
                "state snapshot digest mismatch: corrupted in transport?"
            )
        # Generations must keep increasing monotonically across the
        # swap, or downstream caches keyed on (generation, ...) could
        # serve the pre-sync document.
        fresh._generation = self.tree.generation + 1
        fresh._explode_listener = weakref.ref(self)
        self.tree = fresh
        self.allocator = Allocator(fresh, balanced=self.allocator.balanced)
        self._touch_stamps = {}
        self._touch_seen = {}
        self._sweep_pending = {}
        self._explode_history = {}
        self._needs_full_sweep = True
        self._text_cache = None
        return len(atoms)

    def merge_segments(self, state: "DocumentState",
                       skip: frozenset = frozenset()) -> MergeOutcome:
        """Join a delta's region frame into this replica's document in
        place: one walk over the decoded partial tree's used identifiers.

        A live atom already held is an idempotent duplicate, a different
        atom at its identifier raises :class:`TreeError`, and one
        named in ``skip`` (deleted here, the delete unseen by the
        sender) stays deleted. A live atom landing on a tombstone here
        not in ``skip`` is a re-mint (section 3.3.2): the sender saw the
        delete, purged the identifier as stable and minted it again, so
        the tombstone is purged and the atom placed. A frame tombstone
        is materialized when its insert never arrived, deletes nothing
        live (the caller replays the frame's new deletes from its delete
        log; a live atom here that the frame holds dead was re-minted
        after a purge the sender has not made yet), and raises
        :class:`TreeError` in a discard-mode (UDIS) document. Local
        atoms the sender never saw survive. The caller owns the causal
        safety argument (see
        :meth:`repro.replication.site.ReplicaSite._apply_sync_delta`).
        """
        from repro.core.encoding import decode_state

        # (PosID, atom) per used identifier; a tombstone's atom is None.
        used = []
        memo = PathMemo()
        for entry in decode_state(state)[2].iter_entries():
            if type(entry) is ArrayLeaf:
                used.extend(zip(entry.id_posids(), entry.atoms))
            elif entry.atom is not NO_ATOM:
                atom = entry.atom
                used.append((memo.posid(entry),
                             None if atom is DEAD_ATOM else atom))
        tree = self.tree
        touched: List[AtomSlot] = []
        placed = 0
        tombstones = 0
        revived: List[PosID] = []
        tree.begin_bulk()
        try:
            for posid, atom in used:
                if atom is None:
                    if not self.keeps_tombstones:
                        raise TreeError(
                            "tombstone in a discard-mode (UDIS) document")
                    slot = tree.materialize(posid)
                    if slot.atom is not NO_ATOM:
                        continue
                    # Its insert never came here.
                    slot.atom = DEAD_ATOM
                    tree._adjust_counts(slot, 0, 1)
                    tombstones += 1
                elif posid in skip:
                    continue
                else:
                    slot = tree.materialize(posid)
                    held = slot.atom
                    if held is DEAD_ATOM:
                        tree.revive(slot, atom)
                        revived.append(posid)
                    elif held is not NO_ATOM:
                        if held != atom:
                            raise TreeError(
                                f"region merge conflict at {posid!r}")
                        continue
                    else:
                        tree.set_live(slot, atom)
                    placed += 1
                touched.append(slot)
        finally:
            tree.end_bulk()
        self._touch_many(touched)
        self._text_cache = None
        return MergeOutcome(placed, tuple(revived), tombstones)

    # -- internals ---------------------------------------------------------------------

    def _claim_seqs(self, count: int) -> int:
        """Reserve ``count`` local sequence numbers; returns the first."""
        start = self._op_seq
        self._op_seq = start + count
        return start

    def _neighbours(self, index: int):
        """Adjacent used identifiers around visible position ``index``
        (DESIGN.md section 3.2: the successor includes tombstones).

        The predecessor resolves by one counted descent
        (:meth:`TreedocTree.live_slot_at`, DESIGN.md section 6)."""
        length = self.tree.live_length
        if index < 0 or index > length:
            raise IndexError(f"insert index {index} out of range 0..{length}")
        if index == 0:
            p_slot: Optional[AtomSlot] = None
        else:
            p_slot = self.tree.live_slot_at(index - 1)
        f_slot = self.tree.next_id_holder(p_slot)
        return p_slot, f_slot

    #: Bound on the per-revision stamped-node memo: embeddings that
    #: never call note_revision (plain editors) must not accumulate
    #: strong references forever.
    _TOUCH_SEEN_LIMIT = 8192

    def _touch(self, slot: AtomSlot) -> None:
        """Stamp the position-node spine of ``slot`` with the current
        revision (cold-region bookkeeping).

        Every stamping walks to the root, so a node already stamped
        this revision implies its whole ancestor spine is too — the
        walk stops there, making repeated localized edits within one
        revision O(unstamped spine), not O(depth). The memo holds node
        references, so a pruned node's id cannot be recycled (and
        mistaken for already-stamped) before the revision ends.
        """
        stamps = self._touch_stamps
        seen = self._touch_seen
        if len(seen) > self._TOUCH_SEEN_LIMIT:
            seen.clear()
        revision = self.revision
        node = slot_host(slot)
        if self.collapse_every is not None:
            self._sweep_pending[id(node)] = node
        while node is not None:
            key = id(node)
            if key in seen:
                break
            seen[key] = node
            stamps[key] = revision
            node = parent_host(node)

    def _touch_many(self, slots: Sequence[AtomSlot]) -> None:
        """Batch version of :meth:`_touch`: stamp the spines of many
        slots, stopping at ancestors already stamped with the current
        revision (see :meth:`_touch`)."""
        stamps = self._touch_stamps
        seen = self._touch_seen
        if len(seen) > self._TOUCH_SEEN_LIMIT:
            seen.clear()
        revision = self.revision
        pending = self._sweep_pending if self.collapse_every is not None \
            else None
        for slot in slots:
            node = slot_host(slot)
            if pending is not None:
                pending[id(node)] = node
            while node is not None:
                key = id(node)
                if key in seen:
                    break
                seen[key] = node
                stamps[key] = revision
                node = parent_host(node)

    def _touch_region(self, path: PosID) -> None:
        node = resolve_region(self.tree, path)
        self._touch_stamps[id(node)] = self.revision
        if self.collapse_every is not None:
            self._sweep_pending[id(node)] = node
        self._touch(node)

    # -- diagnostics ------------------------------------------------------------------

    def check(self) -> None:
        """Validate all tree invariants (testing aid)."""
        self.tree.check_invariants()

    def __repr__(self) -> str:
        return (
            f"<Treedoc site={self.site} mode={self.mode} "
            f"atoms={len(self)} ids={self.tree.id_length}>"
        )
