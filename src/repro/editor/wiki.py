"""A wiki page on Treedoc: the paper's other target application.

The evaluation replays Wikipedia histories with *paragraph* atoms; this
module closes the loop by implementing the wiki-side editing model on
top of the CRDT:

- a :class:`WikiPage` holds the page as paragraphs;
- ``save(new_text)`` computes the diff against the current state (the
  same Myers machinery the evaluation uses) and turns it into Treedoc
  operations — modifying a paragraph is a delete plus an insert, which
  is exactly why the paper sees so many deletes on wiki workloads;
- concurrent saves at different replicas merge paragraph-wise with no
  locking: edits to different paragraphs both survive;
- periodic maintenance flattens cold regions, keeping the page's
  identifier and storage overhead bounded over thousands of revisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.ops import Operation
from repro.core.treedoc import Treedoc
from repro.workloads.diff import edit_script


def split_paragraphs(text: str) -> List[str]:
    """Split page text into paragraph atoms (blank-line separated)."""
    paragraphs = [p.strip("\n") for p in text.split("\n\n")]
    return [p for p in paragraphs if p != ""]


@dataclass(frozen=True)
class WikiRevision:
    """One save: its number and edit summary."""

    number: int
    inserted: int
    deleted: int
    author_site: int

    @property
    def churn(self) -> int:
        return self.inserted + self.deleted


class WikiPage:
    """One replica of a wiki page."""

    def __init__(self, site: int, mode: str = "sdis",
                 maintenance_every: Optional[int] = None) -> None:
        self.doc = Treedoc(site, mode=mode)
        self.site = site
        #: Flatten cold regions every N saves (None = never), the
        #: Table 1 "Flatten" knob applied to live wiki editing.
        self.maintenance_every = maintenance_every
        self.history: List[WikiRevision] = []

    # -- reading ------------------------------------------------------------------

    def paragraphs(self) -> List[str]:
        atoms = self.doc.atoms()
        # Paragraph atoms are strings already; atoms() returned a fresh
        # list, so it can be handed out directly.
        if all(type(a) is str for a in atoms):
            return atoms
        return [str(a) for a in atoms]

    def text(self) -> str:
        # Generation-cached join (repeated page renders between saves
        # cost one dict-sized lookup, not a tree walk).
        return self.doc.text("\n\n")

    @property
    def revision(self) -> int:
        return len(self.history)

    # -- editing --------------------------------------------------------------------

    def save(self, new_text: str) -> List[Operation]:
        """Replace the page with ``new_text``; returns the ops to ship.

        The edit is derived by paragraph diff, so untouched paragraphs
        keep their identifiers (and concurrent edits to them merge).
        """
        target = split_paragraphs(new_text)
        ops: List[Operation] = []
        inserted = deleted = 0
        for op in edit_script(self.paragraphs(), target):
            if op.kind == "insert":
                ops.extend(self.doc.insert_text(op.index, list(op.atoms)).ops)
                inserted += len(op.atoms)
            else:
                for _ in range(op.count):
                    ops.append(self.doc.delete(op.index))
                deleted += op.count
        self.doc.note_revision()
        self.history.append(
            WikiRevision(self.revision + 1, inserted, deleted, self.site)
        )
        if (
            self.maintenance_every
            and self.revision % self.maintenance_every == 0
        ):
            # Collect until dry (bounded): the single-shot heuristic the
            # paper measured leaves scattered tombstones behind (its
            # section 5.1 shortfall); an application can simply keep
            # flattening cold regions until none remain.
            for _ in range(8):
                flatten = self.doc.flatten_cold()
                if flatten is None:
                    break
                ops.append(flatten)
        return ops

    def edit_paragraph(self, index: int, new_text: str) -> List[Operation]:
        """Rewrite one paragraph (the drive-by wiki edit)."""
        ops = [self.doc.delete(index)]
        ops.extend(self.doc.insert_text(index, [new_text]).ops)
        self.doc.note_revision()
        self.history.append(WikiRevision(self.revision + 1, 1, 1, self.site))
        return ops

    def revert_vandalism(self, paragraphs: Sequence[str]) -> List[Operation]:
        """Administrator restore: replace the whole page content.

        Restored paragraphs are new atoms (the old ones were deleted by
        the vandal), doubling the churn — the effect section 5 notes.
        """
        return self.save("\n\n".join(paragraphs))

    # -- replication -----------------------------------------------------------------

    def apply(self, op: Operation) -> None:
        """Replay a remote operation (causal order assumed)."""
        self.doc.apply(op)

    def apply_all(self, ops) -> None:
        for op in ops:
            self.apply(op)

    # -- bookkeeping -----------------------------------------------------------------

    def overhead_summary(self) -> str:
        from repro.metrics.overhead import measure_tree

        stats = measure_tree(self.doc.tree, with_disk=False)
        return (
            f"rev {self.revision}: {stats.live_atoms} paragraphs, "
            f"{stats.nodes} nodes, {100 * stats.tombstone_fraction:.0f}% "
            f"dead, avg id {stats.avg_posid_bits:.0f} bits"
        )
