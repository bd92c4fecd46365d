"""Figure 6: node counts over the lifetime of acf.tex.

Replay acf.tex (SDIS, flatten every 2 revisions) sampling after each
revision the total number of nodes and the number of non-tombstone
nodes. The paper's shape: both curves climb as edits accumulate, and
flattening appears as drastic drops of the total curve towards the
non-tombstone curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.node import EMPTY, LIVE
from repro.experiments.common import DEFAULT_SEED, run_document
from repro.workloads.corpus import document_spec


@dataclass
class Sample:
    """One per-revision sample."""

    revision: int
    total_nodes: int
    non_tombstone_nodes: int


def _count_nodes(doc) -> Sample:
    total = 0
    live = 0
    for node in doc.tree.root.iter_nodes():
        if node is doc.tree.root and node.state == EMPTY and not node.minis:
            continue
        minis = node.mini_nodes()
        total += 1 + max(0, len(minis) - 1)
        if node.state == LIVE:
            live += 1
        live += sum(1 for m in minis if m.state == LIVE)
    return Sample(0, total, live)


def run(seed: int = DEFAULT_SEED, flatten_every: int = 2,
        document: str = "acf.tex") -> List[Sample]:
    samples: List[Sample] = []

    def probe(revision: int, doc) -> None:
        sample = _count_nodes(doc)
        samples.append(Sample(revision, sample.total_nodes,
                              sample.non_tombstone_nodes))

    run_document(
        document_spec(document), mode="sdis", balanced=True,
        flatten_every=flatten_every, seed=seed, with_disk=False,
        probe=probe,
    )
    return samples


def render(samples: List[Sample], width: int = 68, height: int = 16) -> str:
    """ASCII rendering of the two curves ('#' total, 'o' non-tombstone)."""
    if not samples:
        return "no samples"
    peak = max(s.total_nodes for s in samples) or 1
    grid = [[" "] * width for _ in range(height)]
    last = samples[-1].revision or 1
    for sample in samples:
        x = min(width - 1, int(sample.revision * (width - 1) / last))
        y_total = min(height - 1, int(sample.total_nodes * (height - 1) / peak))
        y_live = min(height - 1, int(
            sample.non_tombstone_nodes * (height - 1) / peak))
        grid[height - 1 - y_total][x] = "#"
        if grid[height - 1 - y_live][x] == " ":
            grid[height - 1 - y_live][x] = "o"
    lines = [
        "Figure 6. Nodes over revisions (acf.tex, SDIS, flatten-2)",
        f"peak={peak} nodes; '#' = total, 'o' = non-tombstone",
    ]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" revision 0 .. {samples[-1].revision}")
    return "\n".join(lines)


def main(seed: int = DEFAULT_SEED) -> str:
    samples = run(seed)
    output = render(samples)
    drops = sum(
        1
        for i in range(1, len(samples))
        if samples[i].total_nodes < samples[i - 1].total_nodes * 0.9
    )
    output += f"\n flatten events visible as >10% drops: {drops}"
    print(output)
    return output
