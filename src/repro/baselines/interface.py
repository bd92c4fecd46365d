"""The sequence-CRDT contract shared by Treedoc and the baselines.

Every implementation offers local ``insert``/``delete`` returning an
opaque operation, remote ``apply``, and the measurement hooks the
benchmark harness reads (identifier bits, element counts). On top of
the single-operation calls sits the batch contract: ``insert_text`` /
``delete_range`` perform one local edit and return a single
:class:`repro.core.ops.OpBatch`, and ``apply_batch`` replays one. The
defaults fall back to the single-operation methods, so a correct
implementation gets batching for free; implementations override the
``_run_insert_ops`` / ``_range_delete_ops`` hooks (or ``apply_batch``)
with fast paths that skip per-operation index recomputation. The
contract tests in ``tests/baselines/test_crdt_contract.py`` run one
suite — including hypothesis batch-vs-sequential convergence
properties — over all implementations.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

from repro.core.disambiguator import SiteId
from repro.core.ops import OpBatch
from repro.core.treedoc import Treedoc
from repro.util.text import join_atoms


class SequenceCRDT(abc.ABC):
    """Abstract replicated sequence: the section 2 buffer abstraction."""

    site: SiteId
    #: Per-origin operation counter backing the batches' seq ranges
    #: (mirrors ``Treedoc._claim_seqs``); shadowed per instance on the
    #: first claim.
    _op_seq: int = 0

    @abc.abstractmethod
    def insert(self, index: int, atom: object) -> object:
        """Insert locally; returns the operation to broadcast."""

    @abc.abstractmethod
    def delete(self, index: int) -> object:
        """Delete locally; returns the operation to broadcast."""

    @abc.abstractmethod
    def apply(self, op: object) -> None:
        """Replay a remote operation (causal order assumed)."""

    @abc.abstractmethod
    def atoms(self) -> List[object]:
        """The visible sequence."""

    @abc.abstractmethod
    def total_id_bits(self) -> int:
        """Total identifier size over visible atoms, in bits (the
        Table 5 comparison metric)."""

    @abc.abstractmethod
    def element_count(self) -> int:
        """Stored elements including tombstones (overhead metric)."""

    def __len__(self) -> int:
        return len(self.atoms())

    def text(self, separator: str = "") -> str:
        """The visible sequence as a string (plain join when the atoms
        already are strings, skipping the per-atom ``str()`` call)."""
        return join_atoms(separator, self.atoms())

    # -- batch contract ---------------------------------------------------------

    def insert_text(self, index: int, atoms: Sequence[object]) -> OpBatch:
        """Insert a consecutive run locally; returns one batch."""
        ops = self._run_insert_ops(index, list(atoms))
        return OpBatch.build(ops, self.site, self._claim_seqs(len(ops)))

    def delete_range(self, start: int, end: int) -> OpBatch:
        """Delete the range ``[start, end)`` locally; returns one batch."""
        ops = self._range_delete_ops(start, end)
        return OpBatch.build(ops, self.site, self._claim_seqs(len(ops)))

    def apply_batch(self, batch: OpBatch) -> None:
        """Replay a remote batch. The default falls back to sequential
        :meth:`apply`, which is always correct; implementations with a
        cheaper bulk path override it."""
        for op in batch.ops:
            self.apply(op)

    def maintain(self) -> None:
        """Run purely local storage maintenance.

        Must not change the visible sequence and must not need
        replication — the contract tests interleave it arbitrarily with
        concurrent edits on one replica only. Treedoc collapses cold
        canonical regions into array leaves here (section 4.2 mixed
        storage); the baselines have no storage dimorphism, so the
        default is a no-op.
        """

    # -- batch internals (override these for fast paths) ------------------------

    def _run_insert_ops(self, index: int,
                        atoms: List[object]) -> List[object]:
        """Perform a run insert locally, returning its operations.
        Default: one-by-one at ``index + offset`` (always correct)."""
        return [self.insert(index + offset, atom)
                for offset, atom in enumerate(atoms)]

    def _range_delete_ops(self, start: int, end: int) -> List[object]:
        """Perform a range delete locally, returning its operations.
        Default: repeated delete at ``start`` (always correct)."""
        if not 0 <= start <= end <= len(self):
            raise IndexError(f"range [{start}, {end}) out of range")
        return [self.delete(start) for _ in range(end - start)]

    def _claim_seqs(self, count: int) -> int:
        """Reserve ``count`` per-origin sequence numbers for a batch."""
        start = self._op_seq
        self._op_seq = start + count
        return start


class TreedocAdapter(SequenceCRDT):
    """Treedoc behind the common contract (for uniform comparisons)."""

    def __init__(self, site: SiteId, mode: str = "udis",
                 balanced: bool = True) -> None:
        self.site = site
        self.doc = Treedoc(site, mode=mode, balanced=balanced)

    def insert(self, index: int, atom: object) -> object:
        return self.doc.insert(index, atom)

    def insert_text(self, index: int, atoms: Sequence[object]) -> OpBatch:
        return self.doc.insert_text(index, atoms)

    def delete(self, index: int) -> object:
        return self.doc.delete(index)

    def delete_range(self, start: int, end: int) -> OpBatch:
        return self.doc.delete_range(start, end)

    def apply(self, op: object) -> None:
        self.doc.apply(op)

    def apply_batch(self, batch: OpBatch) -> None:
        self.doc.apply_batch(batch)

    def atoms(self) -> List[object]:
        return self.doc.atoms()

    def text(self, separator: str = "") -> str:
        return self.doc.text(separator)

    def __len__(self) -> int:
        # O(1) off the subtree counts, not a snapshot materialization.
        return len(self.doc)

    def maintain(self) -> None:
        """Advance the cold clock one revision and collapse whatever
        has gone quiescent (aggressive thresholds: maintenance in tests
        should actually exercise the mixed form)."""
        self.doc.note_revision()
        self.doc.collapse_cold(min_age=1, min_atoms=2)

    def total_id_bits(self) -> int:
        return sum(p.size_bits for p in self.doc.posids())

    def element_count(self) -> int:
        return self.doc.tree.id_length
