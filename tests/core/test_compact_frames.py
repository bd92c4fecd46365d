"""The dictionary-coded per-edit frames: compact batch frames and
wire-kind-10 envelopes.

Round trips over arbitrary content (foreign-origin records, flattens
with and without a transaction, runs, counters up to 2^32 - 1, random
48-bit sites), corruption that surfaces only as :class:`DecodeError`,
and the size bound against the fixed-width envelope (kind 0) the
dictionary replaced.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.disambiguator import COUNTER_BITS, SITE_ID_BITS, Sdis, Udis
from repro.core.encoding import (
    BATCH_FRAME_KIND,
    FRAME_TAG,
    FRAME_WIRE,
    DocumentState,
    decode_batch,
    decode_frame,
    decode_state,
    encode_batch,
)
from repro.core.ops import DeleteOp, FlattenOp, InsertOp, OpBatch
from repro.core.path import PathElement, PosID
from repro.core.runs import PREFIX, AtomRun, find_runs
from repro.errors import DecodeError
from repro.replication.clock import VectorClock
from repro.replication.wire import CRC_BYTES, EnvelopeFrame, decode_wire

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

sites = st.integers(0, (1 << SITE_ID_BITS) - 1)
counters = st.integers(0, (1 << COUNTER_BITS) - 1)
atoms = st.text(st.characters(codec="utf-8", blacklist_categories=("Cs",)),
                min_size=1, max_size=3)


def gamma_bits(value: int) -> int:
    return 2 * (value.bit_length() - 1) + 1


def fixed_width_envelope_bits(frame: EnvelopeFrame) -> int:
    """What the body of the fixed-width envelope (wire kind 0) of the
    same content cost, before padding and CRC: header byte, 48-bit
    origin, gamma(entries + 1), per clock entry the 48-bit site and
    gamma(count), the gamma-coded payload bit length and the payload."""
    counts = [count for _, count in frame.clock.items() if count]
    return (8 + SITE_ID_BITS + gamma_bits(len(counts) + 1)
            + sum(SITE_ID_BITS + gamma_bits(count) for count in counts)
            + gamma_bits(frame.payload_bits + 1) + 8 * len(frame.payload))


def frame_bytes(body_bits: int) -> int:
    """A wire frame's bytes for a body of ``body_bits`` bits."""
    return (body_bits + 7) // 8 + CRC_BYTES


@st.composite
def paths(draw, site_pool, udis):
    elements = []
    for _ in range(draw(st.integers(0, 12))):
        dis = None
        if draw(st.booleans()):
            site = draw(st.sampled_from(site_pool))
            dis = Udis(draw(counters), site) if udis else Sdis(site)
        elements.append(PathElement(draw(st.integers(0, 1)), dis))
    return elements


@st.composite
def batches(draw):
    """A batch from one origin holding foreign-origin records, flattens
    with and without a transaction, and (sometimes) a run burst."""
    pool = draw(st.lists(sites, min_size=1, max_size=6, unique=True))
    udis = draw(st.booleans())
    origin = draw(st.sampled_from(pool))
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 2))
        op_origin = draw(st.sampled_from(pool))
        posid = PosID(draw(paths(pool, udis)))
        if kind == 0:
            ops.append(InsertOp(posid, draw(atoms), op_origin))
        elif kind == 1:
            ops.append(DeleteOp(posid, op_origin))
        else:
            txn = draw(st.one_of(st.none(), st.text(max_size=6)))
            ops.append(FlattenOp(posid, draw(st.text(max_size=8)),
                                 op_origin, txn=txn))
    if draw(st.booleans()):
        count = draw(st.integers(4, 9))
        site = draw(st.sampled_from(pool))
        pattern = (("udis", site, draw(st.integers(
            0, (1 << COUNTER_BITS) - count))) if udis else ("sdis", site))
        base = tuple(draw(paths(pool, udis))) + (PathElement(1),)
        run = AtomRun(base, tuple(draw(atoms) for _ in range(count)),
                      PREFIX, pattern)
        at = draw(st.integers(0, len(ops)))
        ops[at:at] = run.insert_ops(origin)
    seq_start = draw(st.integers(0, 1 << 40))
    return OpBatch(tuple(ops), origin, seq_start, seq_start + len(ops))


class TestCompactBatchFrame:
    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_round_trip(self, batch):
        data, bits = encode_batch(batch)
        back = decode_batch(data, bits)
        assert back.ops == batch.ops
        assert (back.origin, back.seq_start, back.seq_end) == (
            batch.origin, batch.seq_start, batch.seq_end)
        assert back.digest == batch.seal().digest
        # The frame re-encodes to itself.
        assert encode_batch(back) == (data, bits)

    def test_run_bursts_still_travel_as_runs(self):
        run = AtomRun((PathElement(0), PathElement(1)), tuple("abcdef"),
                      PREFIX, ("udis", 7, (1 << COUNTER_BITS) - 6))
        batch = OpBatch.build(run.insert_ops(7), 7, 0)
        assert find_runs(batch.ops, 7) == [run]
        data, bits = encode_batch(batch)
        assert bits < encode_batch(batch, min_run_atoms=7)[1]
        assert decode_batch(data, bits).ops == batch.ops

    def test_header_is_the_extended_kind_marker(self):
        # Tag 3, kind FRAME_WIRE, sub-kind BATCH_FRAME_KIND: a v2 reader
        # refused FRAME_WIRE outright, so it rejects the frame with
        # DecodeError; the peer-protocol and state readers refuse it too.
        data, bits = encode_batch(OpBatch.build((), 1, 0))
        assert data[0] == ((FRAME_TAG << 6) | (FRAME_WIRE << 4)
                           | BATCH_FRAME_KIND)
        with pytest.raises(DecodeError):
            decode_wire(data)
        with pytest.raises(DecodeError, match="core batch frame"):
            decode_wire(data + zlib.crc32(data).to_bytes(CRC_BYTES, "big"))
        with pytest.raises(DecodeError):
            decode_state(DocumentState(1, "udis", data, bits, "", 0, 0, 0))

    def test_every_bit_flip_and_truncation_raises_only_decode_error(self):
        data = (GOLDEN / "batch_compact.bin").read_bytes()
        for bit in range(len(data) * 8):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            try:
                decode_frame(bytes(flipped))
            except DecodeError:
                pass
        for length in range(len(data)):
            with pytest.raises(DecodeError):
                decode_frame(data[:length])


envelopes = st.builds(
    lambda origin, clock, payload: EnvelopeFrame(
        origin, VectorClock(clock), payload, 8 * len(payload)),
    sites,
    st.dictionaries(sites, st.integers(1, 1 << 40), min_size=1,
                    max_size=100),
    st.binary(max_size=40),
)


class TestCompactEnvelope:
    @settings(max_examples=150, deadline=None)
    @given(envelopes, st.booleans())
    def test_round_trip_and_size_bound(self, frame, origin_in_clock):
        if origin_in_clock:
            clock = dict(frame.clock.items())
            clock.setdefault(frame.origin, 1)
            frame = EnvelopeFrame(frame.origin, VectorClock(clock),
                                  frame.payload, frame.payload_bits)
        data = frame.to_wire()
        assert data[0] & 0x0F == 10
        back = decode_wire(data)
        assert back == frame
        # At most 2 bits per distinct site over the fixed-width body.
        distinct = len({site for site, _ in frame.clock.items()}
                       | {frame.origin})
        assert len(data) <= frame_bytes(fixed_width_envelope_bits(frame)
                                        + 2 * distinct)

    def test_size_formula_matches_the_fixed_width_golden(self):
        data = (GOLDEN / "wire_envelope.bin").read_bytes()
        assert frame_bytes(fixed_width_envelope_bits(decode_wire(data))) \
            == len(data)

    def test_every_bit_flip_and_truncation_raises_only_decode_error(self):
        data = (GOLDEN / "wire_envelope_compact.bin").read_bytes()
        body = data[:-CRC_BYTES]
        for bit in range(len(data) * 8):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            with pytest.raises(DecodeError):
                decode_wire(bytes(flipped))
            # The same flip behind a valid CRC reaches the parser.
            if bit < len(body) * 8:
                inner = bytes(flipped[:len(body)])
                try:
                    decode_wire(inner + zlib.crc32(inner).to_bytes(
                        CRC_BYTES, "big")).decode_payload()
                except DecodeError:
                    pass
        for length in range(len(data)):
            with pytest.raises(DecodeError):
                decode_wire(data[:length])
