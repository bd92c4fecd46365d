"""Workload definitions and the seeded edit traces they drive.

A workload fixes everything a run does except its seed: document size
and atom kind, disambiguator mode, which daemons keep durable stores,
the offered edit rate, the edit mix, the read pattern beside the
applies, burst sizes and the rejoin repetitions. The seed picks the
document text and every edit; the program under test receives only the
generated edits.

Edits are generated as *steps* (insert or delete, a length, the atoms
to type, and an optional cursor jump) and resolved against the live
document length at the moment they are issued, through the same
:class:`Cursors` state machine that :func:`replay_plain` runs over a
plain Python list. With one writer the resolution is fully
deterministic, so the final document must equal the plain-list replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Site ids: the two stream daemons, the rejoin slot, and the seed site
#: that authors the base document before the run.
SITE_A = 1
SITE_B = 2
SITE_J = 3
SITE_SEED = 9

_WORDS = (
    "the replicated sequence keeps identifiers dense and commutes every "
    "concurrent insert so that sites converge without locks while edits "
    "flow in the background and each replica answers reads at once"
).split()
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
#: Atoms one delete removes (a backspace run), in every workload.
DELETE_LEN = (1, 3)
#: Atoms per window read at a receiver, and how often (every n-th read
#: after an applied remote edit) the read is a full text() instead.
VIEWPORT = 40
FULL_READ_EVERY = 50


@dataclass(frozen=True)
class Workload:
    """One traffic mix. Rates are offered edits per second per writer
    (open loop); shares are fractions of ``--seconds``. Why each mix
    exists is recorded beside it in ``BENCHMARK.json`` and README.md."""

    name: str
    mode: str
    #: The stream pair (sites 1 and 2) keeps DurableStores (checkpoint
    #: every 64 logged events, the daemon default; fsync per
    #: ``harness.FSYNC``).
    durable_pair: bool
    #: Quiescent base document, in character atoms, collapsed into
    #: array leaves before the run.
    base_atoms: int
    #: Every n-th base atom is deleted before the collapse (0: none), so
    #: the base settles into many small leaves instead of two huge ones.
    base_holes: int
    #: Edits the seed site applies to the base before the run (an
    #: edited history: tombstones under SDIS), 0 for none.
    history_edits: int
    writers: Tuple[int, ...]
    rate: float
    stream_share: float
    insert_share: float
    insert_len: Tuple[int, int]
    #: Probability that an edit moves the cursor to a uniformly random
    #: position first (1.0: edits scattered across the document).
    jump: float
    #: Window reads at the receivers are centred on the receiver's own
    #: cursor (True) or at a random position.
    viewport_at_cursor: bool
    burst_size: int
    bursts: int
    #: Rejoin cycles (join, kill, k missed edits, restart, catch-up).
    rejoin_reps: int
    rejoin_k: int
    setup_reps: int = 3

    def stream_edits(self, seconds: float) -> int:
        """Open-loop edits in the stream phase at this run length."""
        return int(round(self.rate * len(self.writers)
                         * self.stream_share * seconds))

    def params(self, seconds: float) -> Dict[str, object]:
        """The parameters a run reports beside its metrics."""
        return {
            "mode": self.mode,
            "atom": "character",
            "base_atoms": self.base_atoms,
            "base_holes": self.base_holes,
            "history_edits": self.history_edits,
            "durable_pair": self.durable_pair,
            "writers": len(self.writers),
            "rate_eps_per_writer": self.rate,
            "stream_edits": self.stream_edits(seconds),
            "insert_share": self.insert_share,
            "insert_len": list(self.insert_len),
            "delete_len": list(DELETE_LEN),
            "jump": self.jump,
            "viewport": VIEWPORT,
            "full_read_every": FULL_READ_EVERY,
            "burst_size": self.burst_size,
            "bursts": self.bursts,
            "rejoin_reps": self.rejoin_reps,
            "rejoin_k": self.rejoin_k,
            "setup_reps": self.setup_reps,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="typing",
            mode="udis", durable_pair=True, base_atoms=500, base_holes=0,
            history_edits=0, writers=(SITE_A, SITE_B), rate=26.0,
            stream_share=1.0, insert_share=0.55, insert_len=(1, 3),
            jump=0.04, viewport_at_cursor=True,
            burst_size=100, bursts=3, rejoin_reps=0, rejoin_k=0,
            setup_reps=15,
        ),
        Workload(
            name="big-doc",
            mode="udis", durable_pair=False, base_atoms=20000,
            base_holes=31, history_edits=0, writers=(SITE_A,), rate=60.0,
            stream_share=0.85, insert_share=0.4, insert_len=(1, 2),
            jump=1.0, viewport_at_cursor=False,
            burst_size=80, bursts=3, rejoin_reps=0, rejoin_k=0,
        ),
        Workload(
            name="rejoin",
            mode="sdis", durable_pair=False, base_atoms=1500, base_holes=0,
            history_edits=1500, writers=(SITE_A,), rate=80.0,
            stream_share=0.15, insert_share=0.5, insert_len=(1, 3),
            jump=0.05, viewport_at_cursor=False,
            burst_size=100, bursts=3, rejoin_reps=3, rejoin_k=270,
            setup_reps=5,
        ),
    )
}


def scaled(workload: Workload, factor: float) -> Workload:
    """A smaller copy of ``workload`` (for the benchmark's own tests)."""
    return replace(
        workload,
        base_atoms=max(200, int(workload.base_atoms * factor)),
        history_edits=int(workload.history_edits * factor),
        burst_size=max(5, int(workload.burst_size * factor)),
        rejoin_k=max(5, int(workload.rejoin_k * factor)),
        rejoin_reps=min(1, workload.rejoin_reps), bursts=1, setup_reps=1,
    )


# -- documents and steps ------------------------------------------------------------


def base_text(workload: Workload, seed: int) -> str:
    """The base document's characters: seeded prose in short lines."""
    rng = random.Random(f"{workload.name}/{seed}/base")
    out: List[str] = []
    size = 0
    line = 0
    while size < workload.base_atoms:
        word = rng.choice(_WORDS)
        line += len(word) + 1
        sep = "\n" if line > 60 else " "
        if sep == "\n":
            line = 0
        out.append(word + sep)
        size += len(word) + 1
    return "".join(out)[: workload.base_atoms]


@dataclass(frozen=True)
class Step:
    """One generated edit, before it is resolved against a document."""

    insert: bool
    length: int
    atoms: str
    #: Cursor jump target as a fraction of the document length.
    jump: Optional[float]


def steps(workload: Workload, seed: int, stream: str) -> Iterator[Step]:
    """The endless seeded step stream ``stream`` (one per writer, plus
    one for the seed site's history)."""
    rng = random.Random(f"{workload.name}/{seed}/{stream}")
    first = True
    while True:
        jump = rng.random() if first or rng.random() < workload.jump else None
        first = False
        if rng.random() < workload.insert_share:
            length = rng.randint(*workload.insert_len)
            atoms = "".join(rng.choice(_LETTERS) for _ in range(length))
            yield Step(True, length, atoms, jump)
        else:
            yield Step(False, rng.randint(*DELETE_LEN), "", jump)


#: A resolved edit: ("insert", index, atoms) or ("delete", start, end).
Edit = Tuple[str, int, object]


class Cursors:
    """Per-writer cursor state: resolves steps to concrete edits.

    An insert types at the cursor and advances it; a delete is a
    backspace (or a forward delete at the document start). A step never
    fails: a delete on an empty document types instead, and every
    range is clamped to the current length.
    """

    def __init__(self) -> None:
        self.position: Dict[int, int] = {}

    def resolve(self, writer: int, step: Step, length: int) -> Edit:
        position = self.position.get(writer, 0)
        if step.jump is not None:
            position = int(step.jump * length)
        position = max(0, min(position, length))
        if step.insert or length == 0:
            atoms = step.atoms or _LETTERS[step.length % len(_LETTERS)]
            self.position[writer] = position + len(atoms)
            return ("insert", position, atoms)
        start = max(0, position - step.length)
        end = position
        if start == end:
            end = min(length, step.length)
        self.position[writer] = start
        return ("delete", start, end)


def apply_plain(document: List[str], edit: Edit) -> None:
    """Apply one resolved edit to a plain list of atoms."""
    kind, index, arg = edit
    if kind == "insert":
        document[index:index] = list(arg)
    else:
        del document[index:arg]


def replay_plain(initial: Sequence[str], writer: int,
                 trace: Sequence[Step]) -> List[str]:
    """The single-writer oracle: resolve and apply ``trace`` to a list."""
    document = list(initial)
    cursors = Cursors()
    for step in trace:
        apply_plain(document, cursors.resolve(writer, step, len(document)))
    return document
