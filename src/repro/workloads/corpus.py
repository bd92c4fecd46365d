"""The six evaluation documents, with the paper's published statistics.

Table 1 and Table 2 give, for each document: kind, final size in atoms
(paragraphs for wiki pages, lines for LaTeX files), final size in bytes,
and revision count; Table 2 adds initial sizes for the least and most
active documents (99 and 9 atoms). The specs below pin the published
numbers and estimate the two unpublished initial sizes from Table 2's
averages. The histories themselves are synthesized to match
(DESIGN.md section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import WorkloadError


@dataclass(frozen=True)
class DocumentSpec:
    """Published statistics of one evaluation document."""

    name: str
    kind: str  # "wiki" (paragraph atoms) | "latex" (line atoms)
    final_atoms: int
    final_bytes: int
    revisions: int
    initial_atoms: int
    #: Wikipedia pages suffer vandalism episodes (mass deface + restore);
    #: expected number over the whole history.
    vandalism_episodes: int = 0
    #: Flatten cadences evaluated for this document in Table 1
    #: ("number of revisions between flatten heuristics").
    flatten_cadences: tuple = ()

    @property
    def avg_atom_bytes(self) -> float:
        return self.final_bytes / self.final_atoms


#: Wikipedia pages (paragraph granularity, flatten cadences 1 and 2).
WIKI_DOCUMENTS: List[DocumentSpec] = [
    DocumentSpec(
        name="Distributed Computing",
        kind="wiki",
        final_atoms=171,
        final_bytes=19_686,
        revisions=870,
        initial_atoms=9,       # Table 2, "most active"
        vandalism_episodes=12,
        flatten_cadences=(1, 2),
    ),
    DocumentSpec(
        name="IBM POWER",
        kind="wiki",
        final_atoms=184,
        final_bytes=24_651,
        revisions=401,
        initial_atoms=40,      # estimated from Table 2 averages
        vandalism_episodes=6,
        flatten_cadences=(1, 2),
    ),
    DocumentSpec(
        name="Grey Owl",
        kind="wiki",
        final_atoms=110,
        final_bytes=12_388,
        revisions=242,
        initial_atoms=30,      # estimated from Table 2 averages
        vandalism_episodes=4,
        flatten_cadences=(1, 2),
    ),
]

#: LaTeX files from the SVN repository (line granularity, cadences 2/8).
LATEX_DOCUMENTS: List[DocumentSpec] = [
    DocumentSpec(
        name="acf.tex",
        kind="latex",
        final_atoms=332,
        final_bytes=14_048,
        revisions=51,
        initial_atoms=99,      # Table 2, "less active"
        flatten_cadences=(2, 8),
    ),
    DocumentSpec(
        name="algorithms.tex",
        kind="latex",
        final_atoms=396,
        final_bytes=15_186,
        revisions=58,
        initial_atoms=120,     # estimated from Table 2 averages
        flatten_cadences=(2, 8),
    ),
    DocumentSpec(
        name="propagation.tex",
        kind="latex",
        final_atoms=481,
        final_bytes=22_170,
        revisions=68,
        initial_atoms=150,     # estimated from Table 2 averages
        flatten_cadences=(2, 8),
    ),
]

#: All six, in the order of Table 1.
PAPER_DOCUMENTS: List[DocumentSpec] = WIKI_DOCUMENTS + LATEX_DOCUMENTS

_BY_NAME: Dict[str, DocumentSpec] = {d.name: d for d in PAPER_DOCUMENTS}


def document_spec(name: str) -> DocumentSpec:
    """The spec of a paper document by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise WorkloadError(
            f"unknown document {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
