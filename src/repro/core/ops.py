"""Replicated operations of the abstract buffer type (section 2.2).

Operations are plain immutable records; the replication layer wraps them
in causally-stamped envelopes. ``insert`` and ``delete`` are the user
edit operations; ``flatten`` is the structural clean-up of section 4.2,
which replicates only through the commitment protocol.

:class:`OpBatch` is the wire unit of the batch-first API: an ordered,
versioned group of operations produced by one local edit (a typed
string, a deleted range, a replayed revision). Every layer of the stack
speaks batches — local edit methods return one, causal broadcast ships
one envelope per batch, and ``apply_batch`` replays one with deferred
index maintenance — while the single-operation methods remain as
separate, faster one-atom paths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple, Union

from repro.core.disambiguator import SiteId
from repro.core.path import PosID


@dataclass(frozen=True, slots=True)
class InsertOp:
    """``insert(PosID, atom)``: add a fresh (atom, PosID) couple."""

    posid: PosID
    atom: object
    origin: SiteId

    @property
    def kind(self) -> str:
        return "insert"

    def __repr__(self) -> str:
        return f"insert({self.posid!r}, {self.atom!r}) @{self.origin}"


@dataclass(frozen=True, slots=True)
class DeleteOp:
    """``delete(PosID)``: remove the atom with that identifier."""

    posid: PosID
    origin: SiteId

    @property
    def kind(self) -> str:
        return "delete"

    def __repr__(self) -> str:
        return f"delete({self.posid!r}) @{self.origin}"


def content_digest(atoms: Tuple[object, ...]) -> str:
    """Stable digest of an atom sequence (sanity check for flatten).

    String atoms (characters, lines, paragraphs — every shipped
    workload) hash their UTF-8 bytes directly under an ``s`` tag;
    anything else falls back to its ``repr`` under an ``r`` tag.
    """
    hasher = hashlib.sha256()
    update = hasher.update
    for atom in atoms:
        if type(atom) is str:
            encoded = b"s" + atom.encode("utf-8")
        else:
            encoded = b"r" + repr(atom).encode("utf-8")
        update(len(encoded).to_bytes(4, "big"))
        update(encoded)
    return hasher.hexdigest()


@dataclass(frozen=True, slots=True)
class FlattenOp:
    """``flatten(path)``: replace the subtree at ``path`` by its canonical
    exploded form, discarding tombstones and disambiguators.

    ``digest`` is the content digest of the subtree's visible atoms as
    seen by the initiator; every committer must agree (the commitment
    protocol guarantees it — the assertion catches protocol bugs).
    """

    path: PosID
    digest: str
    origin: SiteId
    #: Commitment-protocol transaction tag (opaque to the data type);
    #: lets participants match the committed flatten to their vote lock.
    txn: Optional[str] = field(default=None)

    @property
    def kind(self) -> str:
        return "flatten"

    def __repr__(self) -> str:
        return f"flatten({self.path!r}, {self.digest[:8]}…) @{self.origin}"


Operation = Union[InsertOp, DeleteOp, FlattenOp]


def batch_digest(ops: Tuple[object, ...]) -> str:
    """Stable digest of an operation sequence.

    Treedoc's own operations digest through the PosID's cached packed
    sort key (:meth:`repro.core.path.PosID.sort_key`) — a flat integer
    tuple that identifies the path — instead of rendering per-element
    reprs, which dominated batch minting in replay profiles. Any other
    operation (the baselines' records) falls back to its deterministic
    ``repr``; both encodings are transport-independent.
    """
    hasher = hashlib.sha256()
    update = hasher.update
    for op in ops:
        kind = type(op)
        if kind is InsertOp:
            encoded = (
                f"i{op.posid.sort_key()}@{op.origin}|{op.atom!r}"
            ).encode("utf-8")
        elif kind is DeleteOp:
            encoded = f"d{op.posid.sort_key()}@{op.origin}".encode("utf-8")
        else:
            encoded = repr(op).encode("utf-8")
        update(len(encoded).to_bytes(4, "big"))
        update(encoded)
    return hasher.hexdigest()


class OpBatch:
    """An ordered, versioned group of operations from one origin.

    ``[seq_start, seq_end)`` is the half-open range of the origin's
    local operation counter covered by the batch: batches minted by one
    replica carry non-overlapping, monotonically increasing ranges, so a
    receiver can order, deduplicate, or gap-check an origin's batches
    without inspecting the operations. ``digest`` is the content digest
    of the operations (see :func:`batch_digest`), computed lazily on
    first access — a batch minted and applied inside one replica
    (single-site replay, benchmarks) or broadcast as a wire frame never
    pays for it, while the facade's outbox (:meth:`seal`) or verifying
    one forces it; :meth:`verify` checks it after transport.

    Operations are deliberately opaque (``object``): a batch can carry
    Treedoc operations or any baseline's, which is what lets the whole
    stack — replication, editor, workloads — speak one wire unit.
    """

    __slots__ = ("ops", "origin", "seq_start", "seq_end", "_digest")

    def __init__(self, ops: Tuple[object, ...], origin: SiteId,
                 seq_start: int, seq_end: int,
                 digest: Optional[str] = None) -> None:
        self.ops = tuple(ops)
        self.origin = origin
        self.seq_start = seq_start
        self.seq_end = seq_end
        self._digest = digest

    @property
    def digest(self) -> str:
        """The operations' content digest (computed once, on demand)."""
        if self._digest is None:
            self._digest = batch_digest(self.ops)
        return self._digest

    def seal(self) -> "OpBatch":
        """Materialize the digest and return the batch.

        The facade's outbox (:meth:`repro.replica.Replica.edit`) calls
        this so every batch handed out in memory carries a digest
        stamped *before* transport — :meth:`verify` on the receiving
        side then checks real integrity, not a lazily self-computed
        tautology. Wire frames carry no digest, so the broadcast paths
        never pay for it.
        """
        if self._digest is None:
            self._digest = batch_digest(self.ops)
        return self

    @classmethod
    def build(cls, ops, origin: SiteId, seq_start: int) -> "OpBatch":
        """Mint a batch covering ``len(ops)`` sequence numbers from
        ``seq_start``; the content digest materializes on first use."""
        ops = tuple(ops)
        return cls(ops, origin, seq_start, seq_start + len(ops))

    @property
    def kind(self) -> str:
        return "batch"

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[object]:
        return iter(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    def verify(self) -> bool:
        """True when the digest matches the carried operations."""
        return batch_digest(self.ops) == self.digest

    def merge(self, other: "OpBatch") -> "OpBatch":
        """Concatenate an adjacent batch from the same origin (e.g. the
        delete and insert halves of a replace)."""
        if other.origin != self.origin:
            raise ValueError(
                f"cannot merge batches from origins {self.origin} "
                f"and {other.origin}"
            )
        if other.seq_start != self.seq_end:
            raise ValueError(
                f"cannot merge non-adjacent batches: [{self.seq_start}, "
                f"{self.seq_end}) + [{other.seq_start}, {other.seq_end})"
            )
        return OpBatch.build(self.ops + other.ops, self.origin,
                             self.seq_start)

    def __repr__(self) -> str:
        return (
            f"<OpBatch {len(self.ops)} ops @{self.origin} "
            f"seq [{self.seq_start}, {self.seq_end})>"
        )
