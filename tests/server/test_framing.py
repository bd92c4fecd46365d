"""Stream framing: every wire kind, every chunking, damage recovery.

The satellite contract: feed every wire frame kind through the
:class:`FrameReader` split at every byte boundary and merged across
frames, and assert byte-level identity with the one-shot
``decode_wire`` path; then prove truncation and bit flips mid-stream
surface only as typed errors and the reader recovers.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import encoding
from repro.core.path import PathElement, PosID
from repro.core.treedoc import Treedoc
from repro.errors import DecodeError, EncodingError, FrameSyncError
from repro.replication.clock import VectorClock
from repro.replication.commit import AbortMsg, PrepareMsg, VoteMsg
from repro.replication.wire import (
    DECLINE_BUSY,
    AckFrame,
    EnvelopeFrame,
    SyncDecline,
    SyncDelta,
    SyncRequest,
    SyncResponse,
    decode_wire,
    encode_wire,
    peek_wire_kind,
)
from repro.server.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    MAGIC,
    FrameReader,
    encode_segment,
)


def _sample_frames():
    """One encoded frame of every wire kind (all nine)."""
    doc = Treedoc(site=1, mode="sdis")
    payload, bits = encoding.encode_batch(doc.insert_text(0, list("stream")))
    envelope = EnvelopeFrame(1, VectorClock({1: 1}), payload, bits)
    path = PosID([PathElement(1), PathElement(0)])
    return [
        encode_wire(envelope),
        encode_wire(AckFrame(2, VectorClock({1: 3, 2: 9}))),
        encode_wire(SyncRequest(3, VectorClock({1: 1}))),
        SyncResponse(1, VectorClock({1: 1}), doc.capture_state()).to_wire(),
        encode_wire(PrepareMsg("1.0", path, VectorClock({1: 2}), 1)),
        encode_wire(VoteMsg("1.0", 2, True)),
        encode_wire(AbortMsg("1.0")),
        SyncDelta(1, VectorClock({1: 2}), VectorClock({1: 1}),
                  doc.capture_state()).to_wire(),
        encode_wire(SyncDecline(4, DECLINE_BUSY, 2)),
    ]


FRAMES = _sample_frames()
STREAM = b"".join(encode_segment(frame) for frame in FRAMES)


def read_all(reader, swallow_errors=False):
    frames = []
    while True:
        try:
            frame = reader.next_frame()
        except FrameSyncError:
            if not swallow_errors:
                raise
            continue
        if frame is None:
            return frames
        frames.append(frame)


def _crc8(data):
    """CRC-8, polynomial 0x07, bit by bit (independent of the table
    the framing module builds)."""
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07 if crc & 0x80 else crc << 1) & 0xFF
    return crc


def _varint(value):
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _forge_header(frame, length):
    """A segment for ``frame`` whose header declares ``length`` and
    carries the check byte that matches it: damage the check cannot
    see."""
    head = MAGIC + _varint(length)
    return head + bytes([_crc8(head)]) + frame


def _segment_spelled_by_text():
    """A segment whose payload closes with its own CRC-32, and UTF-8
    text whose bytes, read a few bits off byte alignment, spell it."""
    for n in range(10_000):
        body = bytes(0x41 + n // 15 ** k % 15 for k in range(12))
        forged = encode_segment(body + zlib.crc32(body).to_bytes(4, "big"))
        for shift in range(1, 8):
            # A 0x40 bit ahead of the segment keeps the first byte ASCII.
            bits = int.from_bytes(forged, "big") << shift \
                | 1 << (8 * len(forged) + 6)
            try:
                text = bits.to_bytes(len(forged) + 1, "big").decode("utf-8")
            except UnicodeDecodeError:
                continue
            return forged, text
    raise AssertionError("no text spells a segment")


class TestEveryKindEveryBoundary:
    def test_all_nine_kinds_covered(self):
        kinds = {peek_wire_kind(frame) for frame in FRAMES}
        assert kinds == {
            "envelope", "ack", "sync_request", "sync_response",
            "prepare", "vote", "abort", "sync_delta", "sync_decline",
        }

    def test_split_at_every_byte_boundary(self):
        # Two-chunk delivery split at every possible position: the
        # reassembled payloads are byte-identical to the originals and
        # decode to equal frames via the one-shot path.
        for position in range(len(STREAM) + 1):
            reader = FrameReader()
            reader.feed(STREAM[:position])
            recovered = read_all(reader)
            reader.feed(STREAM[position:])
            recovered += read_all(reader)
            assert recovered == FRAMES
            assert reader.resyncs == 0
        for original in FRAMES:
            assert decode_wire(original) == decode_wire(bytes(original))

    def test_byte_at_a_time(self):
        reader = FrameReader()
        recovered = []
        for index in range(len(STREAM)):
            reader.feed(STREAM[index:index + 1])
            recovered += read_all(reader)
        assert recovered == FRAMES

    def test_single_merged_chunk(self):
        # All nine frames in one read(): the opposite extreme.
        reader = FrameReader()
        reader.feed(STREAM)
        recovered = read_all(reader)
        assert recovered == FRAMES
        assert reader.resyncs == reader.bytes_discarded == 0
        assert [decode_wire(r) for r in recovered] \
            == [decode_wire(f) for f in FRAMES]

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_chunkings_are_equivalent(self, data):
        # Arbitrary split/merge patterns — including empty chunks —
        # always reassemble the identical byte sequences.
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(STREAM)), max_size=24,
        )))
        positions = [0] + cuts + [len(STREAM)]
        reader = FrameReader()
        recovered = []
        for start, end in zip(positions, positions[1:]):
            reader.feed(STREAM[start:end])
            recovered += read_all(reader)
        assert recovered == FRAMES


def _assert_stream_recovers(reader, recovered, prefix):
    """The sound post-damage properties: the prefix before the damage
    is intact, every non-original delivery fails decode_wire *typed*,
    and the stream stays live — after enough fresh valid traffic to
    flush any plausible-but-wrong length field, frames flow again."""
    assert recovered[:len(prefix)] == prefix
    for payload in recovered:
        if any(payload == frame for frame in FRAMES):
            continue
        with pytest.raises(DecodeError):
            decode_wire(payload)
    sentinel = encode_segment(FRAMES[1])
    repeats = reader.max_frame_bytes // len(sentinel) + 2
    reader.feed(sentinel * repeats)
    tail = read_all(reader, swallow_errors=True)
    assert tail and tail[-1] == FRAMES[1]


class TestDamageRecovery:
    def test_corrupt_magic_resyncs_and_recovers(self):
        # Destroy frame k's magic: typed FrameSyncError(s), frames
        # before k intact, the stream stays usable after.
        for k in range(len(FRAMES)):
            segments = [encode_segment(frame) for frame in FRAMES]
            damaged = bytearray(segments[k])
            damaged[0] ^= 0xFF
            segments[k] = bytes(damaged)
            reader = FrameReader(max_frame_bytes=4096)
            reader.feed(b"".join(segments))
            with pytest.raises(FrameSyncError) as err:
                read_all(reader)
            assert err.value.offset > 0
            recovered = read_all(reader, swallow_errors=True)
            assert reader.resyncs >= 1
            assert reader.bytes_discarded > 0
            _assert_stream_recovers(reader, FRAMES[:k] + recovered,
                                    FRAMES[:k])

    def test_truncated_payload_misframes_then_recovers(self):
        # Cut bytes out of frame k's segment: the reader mis-frames
        # (decode_wire's CRC rejects the garbage), then realigns on
        # later magic. Everything surfaces typed; the stream survives.
        for k in range(len(FRAMES) - 1):
            for cut in (1, 3):
                segments = [encode_segment(frame) for frame in FRAMES]
                segments[k] = segments[k][:-cut]
                reader = FrameReader(max_frame_bytes=4096)
                reader.feed(b"".join(segments))
                recovered = read_all(reader, swallow_errors=True)
                _assert_stream_recovers(reader, recovered, FRAMES[:k])

    def test_oversized_length_field_resyncs(self):
        # A length far past the ceiling, with a check byte that agrees:
        # the reader treats the implausible header as corruption instead
        # of buffering toward it. With the frame behind it intact, the
        # next magic shows where the frame ends; with that frame damaged
        # too, the segment is dropped and the stream resyncs.
        oversized = _forge_header(FRAMES[0], 1 << 27)
        reader = FrameReader()
        reader.feed(oversized + STREAM[len(encode_segment(FRAMES[0])):])
        assert read_all(reader) == FRAMES
        assert reader.resyncs == 1
        damaged = bytearray(oversized)
        damaged[-1] ^= 0x01  # the frame's CRC trailer
        reader = FrameReader()
        reader.feed(bytes(damaged)
                    + STREAM[len(encode_segment(FRAMES[0])):])
        with pytest.raises(FrameSyncError):
            read_all(reader)
        recovered = read_all(reader, swallow_errors=True)
        assert recovered == FRAMES[1:]

    def test_inflated_length_does_not_swallow_later_segments(self):
        # A damaged length that still passes both the header check and
        # the max_frame_bytes check: the reader must not wait for bytes
        # that belong to the segments behind it. The damaged segment's
        # frame is intact, so nothing is lost.
        inflated = _forge_header(FRAMES[0], len(FRAMES[0]) + 64)
        assert len(inflated) == len(encode_segment(FRAMES[0]))
        reader = FrameReader()
        reader.feed(inflated + STREAM[len(inflated):])
        assert read_all(reader) == FRAMES
        assert reader.resyncs == 1

    def test_inflated_last_length_is_repaired_by_the_next_magic(self):
        # The last segment's length grows by 64, with a check byte that
        # agrees (forged) or not (a plain bit flip): either way the
        # frame waits for the next magic, not for 64 more bytes.
        last = encode_segment(FRAMES[-1])
        flipped = bytearray(last)
        flipped[1] ^= 0x40
        forged = _forge_header(FRAMES[-1], len(FRAMES[-1]) + 64)
        for damaged in (forged, bytes(flipped)):
            reader = FrameReader(max_frame_bytes=len(STREAM))
            reader.feed(STREAM[:-len(last)] + damaged)
            assert read_all(reader) == FRAMES[:-1]
            # Fed a byte at a time, the next segment's magic shows
            # where the last frame really ended.
            fresh = encode_segment(FRAMES[0])
            frames = []
            for byte in range(len(fresh)):
                reader.feed(fresh[byte:byte + 1])
                frames += read_all(reader)
            assert frames == [FRAMES[-1], FRAMES[0]]
            assert reader.resyncs == 1
            assert reader.buffered == 0

    def test_segment_inside_atom_text_never_moves_a_boundary(self):
        # The magic byte never occurs in UTF-8, but text bit-packed at
        # an odd offset can still spell it: an atom whose UTF-8 bytes,
        # shifted, are a whole segment (magic, length, check byte and a
        # payload closing with its own CRC-32), landing byte-aligned in
        # a state transfer that arrives piecewise.
        forged, text = _segment_spelled_by_text()
        assert MAGIC not in text.encode("utf-8")
        for extra in range(64):
            doc = Treedoc(site=1, mode="sdis")
            doc.insert_text(0, [text] + ["c"] * extra)
            frame = SyncResponse(1, VectorClock({1: 1}),
                                 doc.capture_state()).to_wire()
            if forged in frame:
                break
        assert forged in frame
        stream = encode_segment(frame) + encode_segment(FRAMES[1])
        reader = FrameReader()
        delivered = []
        for byte in range(len(stream)):
            reader.feed(stream[byte:byte + 1])
            delivered += read_all(reader)
        assert delivered == [frame, FRAMES[1]]
        assert reader.resyncs == 0

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_header_flips_never_escape_typed_errors(self, data):
        # Flip bits anywhere in the segment headers: the reader may
        # lose frames, but it only ever raises DecodeError subclasses
        # and keeps accepting fresh valid traffic afterwards.
        flips = data.draw(st.lists(
            st.integers(0, len(STREAM) * 8 - 1), min_size=1, max_size=4,
            unique=True,
        ))
        damaged = bytearray(STREAM)
        for position in flips:
            damaged[position // 8] ^= 0x80 >> (position % 8)
        reader = FrameReader(max_frame_bytes=len(STREAM))
        reader.feed(bytes(damaged))
        recovered = []
        for _ in range(len(STREAM)):
            try:
                frame = reader.next_frame()
            except DecodeError:
                continue
            if frame is None:
                break
            recovered.append(frame)
        # The reader is still usable: a fresh valid frame goes through.
        reader.feed(encode_segment(FRAMES[0]))
        tail = read_all(reader, swallow_errors=True)
        assert tail and tail[-1] == FRAMES[0]

    def test_every_header_bit_flip_delivers_every_frame(self):
        # One flipped bit in a segment's length or check byte fails the
        # header check; the reader finds where the frame really ends
        # and delivers it, so nothing is lost. A trailing segment shows
        # where the last frame ends.
        sentinel = encode_segment(FRAMES[1])
        offset = 0
        for frame in FRAMES:
            size = len(encode_segment(frame)) - len(frame)
            for bit in range(8, 8 * size):
                damaged = bytearray(STREAM)
                damaged[offset + bit // 8] ^= 0x80 >> (bit % 8)
                reader = FrameReader(max_frame_bytes=len(STREAM))
                reader.feed(bytes(damaged) + sentinel)
                assert read_all(reader) == FRAMES + [FRAMES[1]]
                assert reader.resyncs == 1
            offset += size + len(frame)

    def test_every_magic_bit_flip_loses_only_that_segment(self):
        sentinel = encode_segment(FRAMES[1])
        offset = 0
        for k, frame in enumerate(FRAMES):
            for bit in range(8):
                damaged = bytearray(STREAM)
                damaged[offset] ^= 0x80 >> bit
                reader = FrameReader(max_frame_bytes=len(STREAM))
                reader.feed(bytes(damaged) + sentinel)
                recovered = read_all(reader, swallow_errors=True)
                assert recovered == FRAMES[:k] + FRAMES[k + 1:] + [FRAMES[1]]
            offset += len(encode_segment(frame))

    def test_older_two_byte_magic_stream_delivers_nothing(self):
        # Segments framed with the older header (magic d7 9c, u32
        # length) never line up: the reader delivers none of them,
        # raises only typed errors, and takes the next valid segment.
        older = b"".join(b"\xd7\x9c" + len(frame).to_bytes(4, "big") + frame
                         for frame in FRAMES)
        reader = FrameReader()
        reader.feed(older)
        delivered = []
        while True:
            try:
                frame = reader.next_frame()
            except DecodeError:
                continue
            if frame is None:
                break
            delivered.append(frame)
        assert delivered == []
        assert reader.resyncs >= 1
        reader.feed(encode_segment(FRAMES[0]))
        assert read_all(reader, swallow_errors=True) == [FRAMES[0]]

    def test_interleaved_garbage_between_segments(self):
        reader = FrameReader()
        reader.feed(b"\x00\x01\x02" + encode_segment(FRAMES[1])
                    + b"junkjunk" + encode_segment(FRAMES[2]))
        recovered = read_all(reader, swallow_errors=True)
        assert recovered == [FRAMES[1], FRAMES[2]]
        assert reader.resyncs >= 2


class TestSegmentCodec:
    def test_header_layout(self):
        # Magic, LEB128 length, CRC-8 of both; the check value of the
        # CRC-8 (polynomial 0x07) over "123456789" is 0xF4.
        assert _crc8(b"123456789") == 0xF4
        segment = encode_segment(b"abc")
        assert segment[:1] == MAGIC
        assert segment[1] == 3
        assert segment[2] == _crc8(MAGIC + b"\x03")
        assert segment[3:] == b"abc"
        segment = encode_segment(bytes(300))
        assert segment[:4] == MAGIC + b"\xac\x02" \
            + bytes([_crc8(MAGIC + b"\xac\x02")])
        assert segment[4:] == bytes(300)

    def test_header_is_three_bytes_below_128_and_at_most_six(self):
        # Every envelope, ack and heartbeat is under 128 bytes: each
        # pays 3 header bytes. The 16 MiB ceiling needs no more than 6.
        for length in range(128):
            assert len(encode_segment(bytes(length))) - length == 3
        for length in (128, (1 << 14) - 1, 1 << 14, (1 << 21) - 1,
                       1 << 21, DEFAULT_MAX_FRAME_BYTES):
            assert len(encode_segment(bytes(length))) - length <= 6
        with pytest.raises(EncodingError):
            encode_segment(bytes(DEFAULT_MAX_FRAME_BYTES + 1))

    def test_empty_payload_round_trips(self):
        reader = FrameReader()
        reader.feed(encode_segment(b""))
        assert read_all(reader) == [b""]

    def test_non_bytes_payload_rejected(self):
        with pytest.raises(EncodingError):
            encode_segment("text")

    def test_counters_track_traffic(self):
        reader = FrameReader()
        reader.feed(STREAM)
        assert len(read_all(reader)) == len(FRAMES)
        assert reader.bytes_fed == len(STREAM)
        assert reader.resyncs == reader.bytes_discarded == 0
        assert reader.buffered == 0
