"""The :class:`Replica` façade: one replica behind a small, stable API.

``Treedoc`` exposes the full machinery of the paper — trees, allocators,
disambiguators, flatten. Most callers (examples, workload replay,
benchmarks, application embeddings) need only four verbs:

- :meth:`Replica.edit` — perform one local edit (insert, delete or
  replace of a contiguous range) and get back the single
  :class:`repro.core.ops.OpBatch` to ship;
- :meth:`Replica.pending` — drain the batches minted locally since the
  last drain (the replication outbox);
- :meth:`Replica.merge` — replay a remote batch (or bare operation)
  through the deferred-index fast path;
- :meth:`Replica.snapshot` — an immutable view of the visible document
  with a content digest for convergence checks.

Keeping callers on this surface — instead of reaching into
``doc.tree`` internals — is what lets the underlying representation
keep evolving (sharding, async application, alternative backends)
without breaking them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.disambiguator import SiteId
from repro.core.ops import (
    DeleteOp,
    FlattenOp,
    InsertOp,
    OpBatch,
    content_digest,
)
from repro.core.treedoc import Treedoc
from repro.errors import PendingEditsError, ReproError, StorageError
from repro.util.text import join_atoms

#: What merge accepts: one batch, one bare operation, or an iterable of
#: either (e.g. another replica's drained outbox).
Patch = Union[OpBatch, InsertOp, DeleteOp, FlattenOp]


@dataclass(frozen=True)
class SyncReport:
    """What one :meth:`Replica.sync` catch-up cost and carried."""

    #: Visible atoms this replica now holds.
    atoms: int
    #: Bytes the state snapshot costs on the wire.
    wire_bytes: int
    #: Regions that travelled as leaf records (and landed as array
    #: leaves).
    run_segments: int
    #: Slot records outside leaves in the snapshot.
    op_segments: int


@dataclass(frozen=True)
class Snapshot:
    """An immutable view of one replica's visible document."""

    site: SiteId
    atoms: Tuple[object, ...]
    digest: str

    @cached_property
    def text(self) -> str:
        """The snapshot joined as a string (character atoms); computed
        once per snapshot (the atoms are immutable)."""
        return join_atoms("", self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other: object) -> bool:
        """Snapshots compare by content, not by site: two converged
        replicas' snapshots are equal."""
        if isinstance(other, Snapshot):
            return self.atoms == other.atoms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.atoms)


class Replica:
    """One replica of the shared sequence, batch-first.

    Example
    -------

        >>> from repro import Replica
        >>> a, b = Replica(site=1), Replica(site=2)
        >>> batch = a.edit(0, 0, "hello")
        >>> b.merge(batch)
        5
        >>> b.snapshot().text
        'hello'
    """

    def __init__(self, site: SiteId, mode: str = "udis",
                 balanced: bool = True,
                 store: Optional["DurableStore"] = None) -> None:
        self.doc = Treedoc(site, mode=mode, balanced=balanced)
        self._outbox: List[OpBatch] = []
        #: Batches merged from remote replicas, a bare operation
        #: counting as a one-op batch (monitoring aid).
        self.merged_batches = 0
        #: State snapshots adopted via :meth:`sync` (monitoring aid).
        self.synced_states = 0
        #: (generation, Snapshot) — repeated snapshots of an unchanged
        #: replica (convergence polling) skip the digest recomputation.
        self._snapshot_cache: Optional[Tuple[int, Snapshot]] = None
        #: Durability (:mod:`repro.storage`): every minted or merged
        #: batch is journaled (as its core batch frame) before the call
        #: returns, and a store with history replays it here first.
        self.store = store
        self.recovered_batches = 0
        if store is not None:
            self._recover_from_store()

    @property
    def site(self) -> SiteId:
        return self.doc.site

    # -- local editing ------------------------------------------------------------

    def edit(self, start: int, end: int,
             atoms: Sequence[object] = ()) -> OpBatch:
        """Replace the visible range ``[start, end)`` by ``atoms``.

        The one local-edit verb: ``edit(i, i, "x")`` inserts,
        ``edit(i, j)`` deletes, ``edit(i, j, "x")`` replaces. A string
        is treated as a sequence of character atoms. Returns the single
        batch to ship; it is also queued in :meth:`pending`.
        """
        atom_list = list(atoms)
        batch = self.doc.replace_range(start, end, atom_list)
        if batch.ops:
            # Stamp the digest before the batch can leave this replica,
            # so a receiver's verify() checks transport integrity.
            self._outbox.append(batch.seal())
            if self.store is not None:
                # Journal at mint time: once the caller holds the
                # batch, a crash must be able to replay it (and restore
                # it to the outbox — it has not shipped yet).
                from repro.core.encoding import encode_batch
                from repro.storage.wal import RECORD_LOCAL

                self.store.append(RECORD_LOCAL, encode_batch(batch)[0])
                self._maybe_checkpoint()
        return batch

    def insert(self, index: int, atoms: Sequence[object]) -> OpBatch:
        """Insert ``atoms`` at ``index`` (sugar over :meth:`edit`)."""
        return self.edit(index, index, atoms)

    def delete(self, start: int, end: int) -> OpBatch:
        """Delete ``[start, end)`` (sugar over :meth:`edit`)."""
        return self.edit(start, end)

    # -- replication --------------------------------------------------------------

    def pending(self, clear: bool = True) -> List[OpBatch]:
        """Batches minted locally since the last drain, in order.

        With ``clear`` (the default) the outbox empties: ship the
        returned batches, in order, to every other replica.
        """
        batches = list(self._outbox)
        if clear:
            self._outbox.clear()
            if batches and self.store is not None:
                # The drain marker: recovery must not put these back in
                # the outbox (the caller took responsibility for them).
                from repro.storage.wal import RECORD_DRAIN

                self.store.append(RECORD_DRAIN)
        return batches

    def merge(self, patch: Union[Patch, Iterable[Patch]],
              verify: bool = True) -> int:
        """Replay remote work; returns the number of operations applied.

        Accepts one batch, one bare operation, or an iterable of either
        (a peer's drained outbox). Batches must arrive in an order
        compatible with happened-before — per-origin outbox order
        satisfies this for two-replica exchanges; multi-replica overlay
        delivery belongs to :mod:`repro.replication`. With ``verify``
        (the default) each batch's content digest is checked first.
        """
        if isinstance(patch, (InsertOp, DeleteOp, FlattenOp)):
            # One kind of record to journal and apply: a bare operation
            # merges as a one-op batch that claims no seq number (and
            # carries no transported digest to check).
            patch, verify = OpBatch((patch,), patch.origin, 0, 0), False
        if isinstance(patch, OpBatch):
            if verify and not patch.verify():
                raise ReproError(
                    f"batch digest mismatch from site {patch.origin}: "
                    "corrupted in transport?"
                )
            if self.store is not None:
                from repro.core.encoding import encode_batch
                from repro.storage.wal import RECORD_REMOTE

                # Log before apply: the merge is acknowledged (returns)
                # only once a crash could replay it.
                self.store.append(RECORD_REMOTE, encode_batch(patch)[0])
            self.doc.apply_batch(patch)
            self.merged_batches += 1
            self._maybe_checkpoint()
            return len(patch.ops)
        if isinstance(patch, (str, bytes)):
            raise TypeError(
                "merge takes batches or operations, not text; "
                "use edit() for local changes"
            )
        applied = 0
        for item in patch:
            applied += self.merge(item, verify=verify)
        return applied

    def sync(self, source: "Replica") -> SyncReport:
        """Catch this replica up to ``source`` by state transfer.

        Instead of merging ``source``'s batches one by one, the source
        document arrives as one tree-walk state frame: quiescent
        regions ship as inline leaves and load directly into collapsed
        array storage, so a cold replica adopting a large settled
        document pays no per-atom identifiers and no per-atom replay.
        Afterwards this replica is identifier-identical to the source
        (same posids, not just the same text). The snapshot travels as
        real wire bytes — the source's state is encoded into one
        :class:`repro.replication.wire.SyncResponse` frame and decoded
        back before loading — so ``wire_bytes`` in the report is the
        measured frame length, CRC and framing included.

        Only valid as a *catch-up*: this replica must have no pending
        local batches (:meth:`pending` not yet shipped) — those would
        be silently lost, so :class:`repro.errors.SyncError` is raised
        instead. Merges this replica has already applied are fine when
        the source has applied them too (the usual anti-entropy
        deployment syncs from a strictly-ahead peer; the site layer's
        :meth:`repro.replication.site.ReplicaSite.sync_from` enforces
        that with vector clocks).
        """
        if self._outbox:
            raise PendingEditsError(
                f"replica {self.site}: refusing state sync — "
                f"{len(self._outbox)} locally minted batches are still "
                "pending in this replica's outbox and adopting a snapshot "
                "would silently lose them; ship them (pending()) first"
            )
        if source._outbox:
            # The snapshot would embed edits the source has not shipped
            # yet; when the source later drains its outbox normally,
            # replaying those batches against a state that already
            # contains them can fault (e.g. an insert whose identifier
            # the snapshot carries as a tombstone).
            raise PendingEditsError(
                f"replica {source.site}: refusing state sync — the source "
                f"has {len(source._outbox)} unshipped batches; its snapshot "
                "would embed them and their later normal shipment would "
                "replay against a state that already contains them; drain "
                "source.pending() first"
            )
        # The facade has no vector clocks (its outbox checks above are
        # the safety argument), so the frame carries an empty frontier;
        # everything else is exactly the site layer's wire path.
        from repro.replication.clock import VectorClock
        from repro.replication.wire import SyncResponse, decode_wire

        wire = SyncResponse(
            source.site, VectorClock(), source.doc.capture_state()
        ).to_wire()
        response = decode_wire(wire)
        atoms = self.doc.load_state(response.state)
        self._snapshot_cache = None
        self.synced_states += 1
        if self.store is not None:
            # No WAL record describes a wholesale state adoption;
            # persist it as an immediate checkpoint instead.
            self.checkpoint()
        return SyncReport(
            atoms=atoms,
            wire_bytes=len(wire),
            run_segments=response.state.run_segments,
            op_segments=response.state.op_segments,
        )

    # -- durability (repro.storage) ------------------------------------------------

    def checkpoint(self) -> None:
        """Write a durable checkpoint now (the store's cadence normally
        drives this). The checkpoint frame is the same state frame
        :meth:`sync` puts on the wire; batches still waiting in the
        outbox are re-logged into the new segment before it is
        published, so recovery restores them as *pending* without
        re-applying them (the checkpointed state already contains
        their edits)."""
        if self.store is None:
            raise StorageError(f"replica {self.site} has no durable store")
        from repro.core.encoding import encode_batch
        from repro.replication.clock import VectorClock
        from repro.replication.wire import SyncResponse

        frame = SyncResponse(
            self.site, VectorClock(), self.doc.capture_state()
        ).to_wire()
        self.store.write_checkpoint(
            frame, self.doc.mint_counters(),
            outbox=[encode_batch(batch)[0] for batch in self._outbox],
        )

    def _maybe_checkpoint(self) -> None:
        if self.store is not None and self.store.checkpoint_due():
            self.checkpoint()

    def _recover_from_store(self) -> None:
        """Startup recovery: newest valid checkpoint + WAL tail replay.

        ``LOCAL`` tail records re-apply *and* re-enter the outbox (they
        were minted but — absent a later ``DRAIN`` marker — never
        drained); ``REMOTE`` records re-apply; ``OUTBOX`` records
        re-enter the outbox without re-applying (the checkpoint state
        already contains them). Mint counters restore from the META
        bookkeeping plus the replayed ``LOCAL`` batches, so
        post-restart batches carry fresh seq ranges and UDIS
        identifiers.
        """
        from repro.core.encoding import decode_frame
        from repro.storage.wal import (
            RECORD_DRAIN,
            RECORD_LOCAL,
            RECORD_OUTBOX,
            RECORD_REMOTE,
        )

        minted: List[OpBatch] = []

        def replay(record) -> None:
            if record.kind == RECORD_DRAIN:
                self._outbox.clear()
                return
            if record.kind not in (RECORD_LOCAL, RECORD_REMOTE,
                                   RECORD_OUTBOX):
                return
            event = decode_frame(record.payload)
            if record.kind == RECORD_REMOTE:
                # A batch, or a bare operation an older journal wrote.
                self.doc.apply(event)
                self.merged_batches += 1
            else:
                # LOCAL or OUTBOX: back into the outbox; only LOCAL
                # (minted after the checkpoint) also re-applies.
                if record.kind == RECORD_LOCAL:
                    self.doc.apply_batch(event)
                    minted.append(event)
                self._outbox.append(event)
            self.recovered_batches += 1

        _, recovered = self.store.restore(self.doc)
        recovered.replay(replay)
        self.doc.restore_counters(recovered.meta, minted)

    # -- queries ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """An immutable, digest-stamped view of the visible document.

        Cached against the document generation: polling convergence on
        a quiescent replica is O(1) instead of a walk plus a digest.
        """
        cached = self._snapshot_cache
        generation = self.doc.generation
        if cached is not None and cached[0] == generation:
            return cached[1]
        atoms = tuple(self.doc.atoms())
        snapshot = Snapshot(self.site, atoms, content_digest(atoms))
        self._snapshot_cache = (generation, snapshot)
        return snapshot

    def text(self, separator: str = "") -> str:
        """The visible document as a string."""
        return self.doc.text(separator)

    def __len__(self) -> int:
        return len(self.doc)

    def __repr__(self) -> str:
        return (
            f"<Replica site={self.site} atoms={len(self)} "
            f"outbox={len(self._outbox)}>"
        )
