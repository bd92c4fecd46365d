"""Trace replay: drive a sequence CRDT through a revision history.

Replay follows the paper's experimental procedure (section 5): start
from the initial snapshot, then for each revision compute the diff from
the previous version and execute the equivalent inserts and deletes.
Optional flatten cadence ("selecting flattening some cold area every 1,
2 or 8 revisions") and a per-revision probe hook (Figure 6 samples node
counts over the document lifetime) plug into the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.baselines.interface import SequenceCRDT
from repro.core.treedoc import Treedoc
from repro.errors import WorkloadError
from repro.workloads.diff import edit_script
from repro.workloads.revision import History

#: Probe called after each revision: probe(revision_number, doc).
Probe = Callable[[int, object], None]


@dataclass
class ReplayResult:
    """What a replay did and how long it took."""

    history_name: str
    revisions: int = 0
    inserts: int = 0
    deletes: int = 0
    flattens: int = 0
    elapsed_seconds: float = 0.0
    final_atoms: int = 0
    #: Extra probe output, if the caller's probe collects any.
    samples: List[object] = field(default_factory=list)


def replay_history(
    doc: Treedoc,
    history: History,
    flatten_every: Optional[int] = None,
    flatten_min_age: int = 1,
    flatten_min_depth: int = 1,
    probe: Optional[Probe] = None,
    use_runs: bool = True,
) -> ReplayResult:
    """Replay ``history`` into a Treedoc replica.

    ``flatten_every=k`` triggers the cold-region flatten heuristic every
    ``k`` revisions (the Table 1 "Flatten" column); ``use_runs`` groups
    each revision's consecutive inserts (the balancing variant of
    section 5.1) when the document's allocator has balancing enabled.
    """
    result = ReplayResult(history.name)
    started = time.perf_counter()
    doc.insert_text(0, list(history.initial.atoms))
    doc.note_revision()
    result.inserts += len(history.initial)
    if probe is not None:
        probe(0, doc)
    for previous, current in history.pairs():
        for op in edit_script(previous.atoms, current.atoms):
            if op.kind == "insert":
                if use_runs:
                    doc.insert_text(op.index, list(op.atoms))
                else:
                    for offset, atom in enumerate(op.atoms):
                        doc.insert(op.index + offset, atom)
                result.inserts += len(op.atoms)
            else:
                doc.delete_range(op.index, op.index + op.count)
                result.deletes += op.count
        revision = doc.note_revision()
        if flatten_every and revision % flatten_every == 0:
            flattened = doc.flatten_cold(
                min_age=flatten_min_age, min_depth=flatten_min_depth
            )
            if flattened is not None:
                result.flattens += 1
        if probe is not None:
            probe(current.number, doc)
        result.revisions += 1
        # The per-revision convergence check reads the whole snapshot.
        if tuple(doc.atoms()) != current.atoms:
            raise WorkloadError(
                f"replay diverged from snapshot at revision {current.number}"
            )
    result.elapsed_seconds = time.perf_counter() - started
    result.final_atoms = len(doc)
    return result


def replay_into(
    doc: SequenceCRDT,
    history: History,
    use_runs: bool = True,
) -> ReplayResult:
    """Replay ``history`` into any sequence CRDT (baseline comparisons)."""
    result = ReplayResult(history.name)
    started = time.perf_counter()
    doc.insert_text(0, list(history.initial.atoms))
    result.inserts += len(history.initial)
    for previous, current in history.pairs():
        for op in edit_script(previous.atoms, current.atoms):
            if op.kind == "insert":
                if use_runs:
                    doc.insert_text(op.index, list(op.atoms))
                else:
                    for offset, atom in enumerate(op.atoms):
                        doc.insert(op.index + offset, atom)
                result.inserts += len(op.atoms)
            else:
                doc.delete_range(op.index, op.index + op.count)
                result.deletes += op.count
        result.revisions += 1
        if tuple(doc.atoms()) != current.atoms:
            raise WorkloadError(
                f"replay diverged from snapshot at revision {current.number}"
            )
    result.elapsed_seconds = time.perf_counter() - started
    result.final_atoms = len(doc)
    return result
