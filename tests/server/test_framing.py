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
    HEADER_BYTES,
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
        assert reader.frames_delivered == len(FRAMES)
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
        # A flipped high bit in the length field demands gigabytes; the
        # reader treats the implausible header as corruption instead of
        # buffering toward it.
        segments = [encode_segment(frame) for frame in FRAMES]
        damaged = bytearray(segments[0])
        damaged[len(MAGIC)] |= 0x80  # length's top byte
        segments[0] = bytes(damaged)
        reader = FrameReader()
        reader.feed(b"".join(segments))
        with pytest.raises(FrameSyncError):
            read_all(reader)
        recovered = read_all(reader, swallow_errors=True)
        assert recovered == FRAMES[1:]

    def test_inflated_length_does_not_swallow_later_segments(self):
        # A flipped length bit that still passes the max_frame_bytes
        # check: the reader must not wait for bytes that belong to the
        # segments behind it. The damaged segment's frame is intact, so
        # nothing is lost.
        damaged = bytearray(STREAM)
        damaged[3] ^= 0x10  # the length grows by 1 MiB
        reader = FrameReader()
        reader.feed(bytes(damaged))
        assert read_all(reader) == FRAMES
        assert reader.resyncs == 1

    def test_inflated_last_length_is_repaired_by_the_next_magic(self):
        last = len(STREAM) - len(encode_segment(FRAMES[-1]))
        damaged = bytearray(STREAM)
        damaged[last + HEADER_BYTES - 1] ^= 0x80  # 128 bytes too long
        reader = FrameReader(max_frame_bytes=len(STREAM))
        reader.feed(bytes(damaged))
        assert read_all(reader) == FRAMES[:-1]
        # Fed a byte at a time, the next segment's magic shows where
        # the last frame really ended.
        fresh = encode_segment(FRAMES[0])
        frames = []
        for byte in range(len(fresh)):
            reader.feed(fresh[byte:byte + 1])
            frames += read_all(reader)
        assert frames == [FRAMES[-1], FRAMES[0]]
        assert reader.resyncs == 1
        assert reader.buffered == 0

    def test_segment_inside_atom_text_never_moves_a_boundary(self):
        # An atom whose UTF-8 bytes are a whole segment (magic U+05DC,
        # a length, and a payload closing with its own CRC-32), landing
        # byte-aligned in a state transfer that arrives piecewise.
        for n in range(10_000):
            body = b"f%04d" % n
            crc = zlib.crc32(body).to_bytes(4, "big")
            if max(crc) < 0x80:
                break
        forged = encode_segment(body + crc)
        for extra in range(64):
            doc = Treedoc(site=1, mode="sdis")
            doc.insert_text(0, [forged.decode("utf-8")] + ["c"] * extra)
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

    def test_interleaved_garbage_between_segments(self):
        reader = FrameReader()
        reader.feed(b"\x00\x01\x02" + encode_segment(FRAMES[1])
                    + b"junkjunk" + encode_segment(FRAMES[2]))
        recovered = read_all(reader, swallow_errors=True)
        assert recovered == [FRAMES[1], FRAMES[2]]
        assert reader.resyncs >= 2


class TestSegmentCodec:
    def test_header_layout(self):
        segment = encode_segment(b"abc")
        assert segment[:2] == MAGIC
        assert segment[2:6] == (3).to_bytes(4, "big")
        assert segment[6:] == b"abc"
        assert len(segment) == HEADER_BYTES + 3

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
        read_all(reader)
        assert reader.bytes_fed == len(STREAM)
        assert reader.frames_delivered == len(FRAMES)
        assert reader.buffered == 0
