"""Shared test fixtures and hypothesis strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.core.disambiguator import Sdis, Udis
from repro.core.path import PathElement, PosID

# ---------------------------------------------------------------------------
# Hypothesis profiles. CI runs ``pytest --hypothesis-profile=ci``: every
# property draws the same examples on every machine and no example
# database carries failures from one run into the next, so a verdict
# depends on the code alone. ``--hypothesis-profile=random`` draws fresh
# examples (pin them with ``--hypothesis-seed=N``) and prints the blob
# that reproduces a failing one.
# ---------------------------------------------------------------------------

settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("random", database=None, print_blob=True)


# ---------------------------------------------------------------------------
# Hypothesis strategies for the identifier algebra.
# ---------------------------------------------------------------------------

sites = st.integers(min_value=0, max_value=7)
counters = st.integers(min_value=0, max_value=15)

udis_strategy = st.builds(Udis, counter=counters, site=sites)
sdis_strategy = st.builds(Sdis, site=sites)
dis_strategy = st.one_of(udis_strategy, sdis_strategy)

element_strategy = st.builds(
    PathElement,
    bit=st.integers(min_value=0, max_value=1),
    dis=st.one_of(st.none(), udis_strategy),
)

posid_strategy = st.builds(
    PosID, st.lists(element_strategy, min_size=0, max_size=8)
)


# ---------------------------------------------------------------------------
# Deterministic RNG fixture.
# ---------------------------------------------------------------------------


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; reseed per test for reproducibility."""
    return random.Random(0xC0FFEE)


# ---------------------------------------------------------------------------
# Concurrent-editing helpers shared by convergence tests.
# ---------------------------------------------------------------------------


def random_edit(doc, rng: random.Random, tag: str):
    """One random local edit on a sequence CRDT; returns its op."""
    if len(doc) and rng.random() < 0.35:
        return doc.delete(rng.randrange(len(doc)))
    return doc.insert(rng.randint(0, len(doc)), f"{tag}-{rng.randint(0, 999)}")


def exchange_rounds(doc_a, doc_b, rng: random.Random, rounds: int) -> None:
    """Alternate concurrent edit batches and symmetric exchange."""
    for round_number in range(rounds):
        ops_a = [random_edit(doc_a, rng, f"a{round_number}")
                 for _ in range(rng.randint(0, 3))]
        ops_b = [random_edit(doc_b, rng, f"b{round_number}")
                 for _ in range(rng.randint(0, 3))]
        for op in ops_b:
            doc_a.apply(op)
        for op in ops_a:
            doc_b.apply(op)
        assert doc_a.atoms() == doc_b.atoms(), f"diverged in round {round_number}"
