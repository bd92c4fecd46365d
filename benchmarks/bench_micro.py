"""Micro-benchmarks: raw operation costs of the core data type.

Not a paper table, but the numbers behind its CPU-cost remark
(section 5.2: "we know it to be negligible... our simulations run very
quickly") and the knobs DESIGN.md calls out (balancing on/off, UDIS vs
SDIS, flatten) — ablation-style.
"""

from __future__ import annotations

import random

import pytest

from repro.core.path import ROOT
from repro.core.treedoc import Treedoc


def _filled_doc(n: int, mode: str = "udis", balanced: bool = True) -> Treedoc:
    doc = Treedoc(site=1, mode=mode, balanced=balanced)
    doc.insert_text(0, [f"line {i}" for i in range(n)])
    return doc


@pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "naive"])
def bench_sequential_appends(benchmark, balanced):
    def append_500():
        doc = Treedoc(site=1, balanced=balanced)
        for i in range(500):
            doc.insert(i, i)
        return doc

    doc = benchmark(append_500)
    benchmark.extra_info["height"] = doc.tree.height


@pytest.mark.parametrize("mode", ["udis", "sdis"])
def bench_random_edits(benchmark, mode):
    def edit_storm():
        rng = random.Random(7)
        doc = _filled_doc(200, mode=mode)
        for step in range(500):
            if len(doc) > 50 and rng.random() < 0.4:
                doc.delete(rng.randrange(len(doc)))
            else:
                doc.insert(rng.randint(0, len(doc)), step)
        return doc

    doc = benchmark(edit_storm)
    benchmark.extra_info["ids"] = doc.tree.id_length


def bench_remote_replay(benchmark):
    source = Treedoc(site=1)
    rng = random.Random(3)
    ops = []
    for step in range(800):
        if len(source) > 20 and rng.random() < 0.3:
            ops.append(source.delete(rng.randrange(len(source))))
        else:
            ops.append(source.insert(rng.randint(0, len(source)), step))

    def replay():
        replica = Treedoc(site=2)
        replica.apply_all(ops)
        return replica

    replica = benchmark(replay)
    assert replica.atoms() == source.atoms()


def _edit_burst_batches():
    """A burst-shaped edit stream shaped like the paper's revision
    replays (a revision diff carries tens-to-hundreds of atoms): one
    OpBatch per edit burst, ~1600 operations total."""
    source = Treedoc(site=1)
    rng = random.Random(3)
    batches = []
    produced = 0
    while produced < 1600:
        if len(source) > 150 and rng.random() < 0.3:
            start = rng.randrange(len(source) - 50)
            batch = source.delete_range(start, start + 50)
        else:
            index = rng.randint(0, len(source))
            batch = source.insert_text(
                index, [f"{produced}.{k}" for k in range(60)])
        batches.append(batch)
        produced += len(batch)
    return source, batches


@pytest.mark.parametrize("style", ["single-op", "apply-batch"])
def bench_remote_replay_bursts(benchmark, style):
    """The same burst stream replayed two ways: unpacked into single
    ``apply`` calls vs the deferred-index ``apply_batch`` fast path."""
    source, batches = _edit_burst_batches()

    if style == "single-op":
        def replay():
            replica = Treedoc(site=2)
            for batch in batches:
                for op in batch.ops:
                    replica.apply(op)
            return replica
    else:
        def replay():
            replica = Treedoc(site=2)
            for batch in batches:
                replica.apply_batch(batch)
            return replica

    replica = benchmark(replay)
    assert replica.atoms() == source.atoms()


def bench_index_lookup(benchmark):
    doc = _filled_doc(2000)
    rng = random.Random(1)
    indices = [rng.randrange(2000) for _ in range(256)]

    def lookups():
        return [doc.posid_at(i) for i in indices]

    benchmark(lookups)


def bench_flatten_whole_document(benchmark):
    def build_and_flatten():
        doc = _filled_doc(1000, mode="sdis")
        for _ in range(300):
            doc.delete(100)
        doc.note_revision()
        doc.flatten_local(ROOT)
        return doc

    doc = benchmark(build_and_flatten)
    assert doc.tree.id_length == 700


def bench_encode_decode_operations(benchmark):
    from repro.core import encoding

    doc = _filled_doc(300)
    ops = [doc.insert(i, f"payload {i}") for i in range(300, 400)]

    def round_trip():
        total = 0
        for op in ops:
            data, bits = encoding.encode_operation(op)
            encoding.decode_operation(data, bits)
            total += bits
        return total

    benchmark(round_trip)
