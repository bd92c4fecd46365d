"""Differential tests of the word-at-a-time bit codec.

``RefBitWriter`` / ``RefBitReader`` below are the original
bit-at-a-time implementation of :mod:`repro.util.bits`, kept (minus
docstrings) as the reference: one Python call per bit, obviously
MSB-first. Every test drives the reference and the production classes with the same
operations and demands identical bytes, bit lengths, values, remaining
counts, positions and errors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.util.bits import UNARY_WINDOW, BitReader, BitWriter


class RefBitWriter:
    """Bit-at-a-time reference writer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bit_count = 0

    def __len__(self) -> int:
        return self._bit_count

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise EncodingError(f"bit must be 0 or 1, got {bit!r}")
        byte_index, offset = divmod(self._bit_count, 8)
        if byte_index == len(self._bytes):
            self._bytes.append(0)
        if bit:
            self._bytes[byte_index] |= 0x80 >> offset
        self._bit_count += 1

    def write_bits(self, value: int, width: int) -> None:
        if width < 0:
            raise EncodingError(f"width must be non-negative, got {width}")
        if value < 0 or (width < value.bit_length()):
            raise EncodingError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_unary(self, value: int) -> None:
        if value < 0:
            raise EncodingError(f"unary value must be non-negative: {value}")
        for _ in range(value):
            self.write_bit(1)
        self.write_bit(0)

    def write_elias_gamma(self, value: int) -> None:
        if value < 1:
            raise EncodingError(f"elias-gamma needs value >= 1, got {value}")
        width = value.bit_length()
        self.write_unary(width - 1)
        self.write_bits(value - (1 << (width - 1)), width - 1)

    def write_bytes(self, data: bytes) -> None:
        for byte in data:
            self.write_bits(byte, 8)

    def getvalue(self) -> bytes:
        return bytes(self._bytes)

    @property
    def bit_length(self) -> int:
        return self._bit_count


class RefBitReader:
    """Bit-at-a-time reference reader."""

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = data
        self._bit_count = len(data) * 8 if bit_length is None else bit_length
        if self._bit_count > len(data) * 8:
            raise EncodingError("bit_length exceeds the supplied data")
        self._position = 0

    @property
    def remaining(self) -> int:
        return self._bit_count - self._position

    @property
    def bit_position(self) -> int:
        return self._position

    def read_bit(self) -> int:
        if self._position >= self._bit_count:
            raise EncodingError("bit stream exhausted")
        byte_index, offset = divmod(self._position, 8)
        self._position += 1
        return (self._data[byte_index] >> (7 - offset)) & 1

    def read_bits(self, width: int) -> int:
        if width < 0:
            raise EncodingError(f"width must be non-negative, got {width}")
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def peek_bits(self, width: int) -> int:
        # Not in the original reader: a peek is a read that gives back
        # what it consumed.
        position = self._position
        value = self.read_bits(width)
        self._position = position
        return value

    def read_unary(self) -> int:
        count = 0
        while self.read_bit():
            count += 1
        return count

    def read_elias_gamma(self) -> int:
        width = self.read_unary() + 1
        rest = self.read_bits(width - 1)
        return (1 << (width - 1)) + rest

    def read_bytes(self, count: int) -> bytes:
        return bytes(self.read_bits(8) for _ in range(count))


# -- helpers -------------------------------------------------------------------


def outcome(call, *args):
    """``("ok", value)`` or ``("error", type)`` of one codec call."""
    try:
        return ("ok", call(*args))
    except EncodingError as exc:
        return ("error", type(exc))


def writer_state(writer):
    return writer.getvalue(), writer.bit_length, len(writer)


def reader_state(reader):
    return reader.remaining, reader.bit_position


def apply_write(writer, op):
    name, *args = op
    return outcome(getattr(writer, f"write_{name}"), *args)


def apply_read(reader, op):
    name, *args = op
    method = name if name == "peek_bits" else f"read_{name}"
    return outcome(getattr(reader, method), *args)


WIDTHS = st.integers(0, 96)

valid_writes = st.one_of(
    st.tuples(st.just("bit"), st.integers(0, 1)),
    WIDTHS.flatmap(lambda w: st.tuples(
        st.just("bits"), st.integers(0, (1 << w) - 1), st.just(w))),
    st.tuples(st.just("unary"), st.integers(0, 3 * UNARY_WINDOW + 5)),
    st.tuples(st.just("elias_gamma"), st.integers(1, 1 << 90)),
    st.tuples(st.just("bytes"), st.binary(max_size=24)),
)

invalid_writes = st.one_of(
    st.tuples(st.just("bit"), st.sampled_from([2, -1, 7])),
    st.tuples(st.just("bits"), st.integers(-5, -1), WIDTHS),
    WIDTHS.flatmap(lambda w: st.tuples(
        st.just("bits"), st.integers(1 << w, 1 << (w + 3)), st.just(w))),
    st.tuples(st.just("bits"), st.integers(0, 3), st.integers(-3, -1)),
    st.tuples(st.just("unary"), st.integers(-3, -1)),
    st.tuples(st.just("elias_gamma"), st.integers(-3, 0)),
)

reads = st.one_of(
    st.tuples(st.just("bit")),
    st.tuples(st.just("bits"), st.integers(-2, 96)),
    st.tuples(st.just("peek_bits"), st.integers(-2, 96)),
    st.tuples(st.just("unary")),
    st.tuples(st.just("elias_gamma")),
    st.tuples(st.just("bytes"), st.integers(-1, 12)),
)

BUFFERS = [bytes, bytearray, memoryview]


def write_both(ops):
    ref, new = RefBitWriter(), BitWriter()
    for op in ops:
        assert apply_write(new, op) == apply_write(ref, op), op
        assert writer_state(new) == writer_state(ref), op
    return ref, new


def read_both(data, bit_length, ops, buffer=bytes):
    ref = RefBitReader(bytes(data), bit_length)
    new = BitReader(buffer(bytes(data)), bit_length)
    for op in ops:
        assert apply_read(new, op) == apply_read(ref, op), op
        assert reader_state(new) == reader_state(ref), op


# -- writer -------------------------------------------------------------------


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(valid_writes, invalid_writes), max_size=40))
    def test_op_sequences_match_reference(self, ops):
        write_both(ops)

    def test_every_width(self):
        for width in range(90):
            for value in {0, (1 << width) - 1, ((1 << width) - 1) // 3}:
                for lead in range(8):
                    write_both([("bits", 0, lead), ("bits", value, width),
                                ("bit", 1)])

    def test_unary_runs_longer_than_the_window(self):
        for value in (UNARY_WINDOW - 1, UNARY_WINDOW, UNARY_WINDOW + 1,
                      5 * UNARY_WINDOW + 3):
            write_both([("bit", 1), ("unary", value), ("unary", 0)])

    @pytest.mark.parametrize("buffer", BUFFERS)
    def test_unaligned_and_aligned_bytes(self, buffer):
        payload = buffer(b"\x00\xff\x5a\xa5")
        for lead in range(9):
            write_both([("bits", (1 << lead) - 1, lead),
                        ("bytes", payload), ("bytes", b""), ("bit", 1)])

    def test_errors_leave_the_stream_untouched(self):
        writer = BitWriter()
        writer.write_bits(5, 3)
        for call, args in [
            (writer.write_bit, (2,)),
            (writer.write_bits, (8, 3)),
            (writer.write_bits, (1, -1)),
            (writer.write_bits, (-1, 4)),
            (writer.write_unary, (-1,)),
            (writer.write_elias_gamma, (0,)),
        ]:
            with pytest.raises(EncodingError):
                call(*args)
        assert writer_state(writer) == (b"\xa0", 3, 3)


# -- reader -------------------------------------------------------------------


@st.composite
def streams(draw):
    """Bytes from a valid write sequence, or raw noise, plus a declared
    bit length at or below the data's."""
    if draw(st.booleans()):
        _, writer = write_both(draw(st.lists(valid_writes, max_size=20)))
        data = writer.getvalue()
    else:
        data = draw(st.binary(max_size=40))
    bit_length = draw(st.one_of(st.none(), st.integers(0, len(data) * 8)))
    return data, bit_length


class TestReader:
    @settings(max_examples=300, deadline=None)
    @given(streams(), st.lists(reads, max_size=40),
           st.sampled_from(BUFFERS))
    def test_op_sequences_match_reference(self, stream, ops, buffer):
        data, bit_length = stream
        read_both(data, bit_length, ops, buffer)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(valid_writes, min_size=1, max_size=12))
    def test_written_fields_read_back(self, ops):
        _, writer = write_both(ops)
        reader = BitReader(writer.getvalue(), writer.bit_length)
        for name, *args in ops:
            if name == "bits":
                assert reader.read_bits(args[1]) == args[0]
            elif name == "bytes":
                assert reader.read_bytes(len(args[0])) == bytes(args[0])
            else:
                assert getattr(reader, f"read_{name}")() == args[0]
        assert reader.remaining == 0

    def test_every_width_at_every_alignment(self):
        data = bytes(range(7, 7 + 16 * 13, 13))
        for width in range(90):
            for lead in range(8):
                read_both(data, None, [("bits", lead), ("bits", width),
                                       ("bits", width), ("bit",)])

    def test_unary_runs_longer_than_the_window(self):
        for ones in (UNARY_WINDOW - 1, UNARY_WINDOW, UNARY_WINDOW + 1,
                     4 * UNARY_WINDOW + 7):
            for lead in range(8):
                writer = BitWriter()
                writer.write_bits(0, lead)
                writer.write_unary(ones)
                writer.write_elias_gamma(ones + 1)
                data = writer.getvalue()
                ops = [("bits", lead), ("unary",), ("elias_gamma",)]
                read_both(data, None, ops)
                # Ones running into the end of the stream: exhausted.
                read_both(b"\xff" * (ones // 8 + 1), None, [("unary",)])

    @pytest.mark.parametrize("buffer", BUFFERS)
    def test_unaligned_read_bytes(self, buffer):
        data = bytes(range(250, 256)) + bytes(range(6))
        for lead in range(9):
            read_both(data, None, [("bits", lead), ("bytes", 5),
                                   ("bytes", 0), ("bytes", 9)], buffer)

    def test_read_bytes_returns_bytes(self):
        for buffer in BUFFERS:
            reader = BitReader(buffer(b"abcd"))
            assert type(reader.read_bytes(2)) is bytes
            reader.read_bit()
            assert type(reader.read_bytes(1)) is bytes

    def test_bit_length_past_the_data_is_rejected(self):
        with pytest.raises(EncodingError):
            BitReader(b"\x00", 9)
        with pytest.raises(EncodingError):
            RefBitReader(b"\x00", 9)


class TestTruncation:
    """Every prefix of a mixed stream, cut at every bit and every byte:
    the reader fails (or succeeds) exactly where the reference does,
    and leaves the same position for error attribution."""

    FIELDS = [
        ("bits", 0b101, 3), ("elias_gamma", 300), ("unary", 70),
        ("bytes", b"hello"), ("bits", (1 << 80) - 3, 80), ("bit", 1),
        ("elias_gamma", 1), ("bytes", b"\x00\xff"),
    ]

    def _reads(self):
        return [(name,) if name in ("bit", "unary", "elias_gamma")
                else ("bytes", len(args[0])) if name == "bytes"
                else ("bits", args[1])
                for name, *args in self.FIELDS]

    def test_every_bit_truncation(self):
        _, writer = write_both(self.FIELDS)
        data = writer.getvalue()
        for cut in range(writer.bit_length + 1):
            read_both(data, cut, self._reads())

    @pytest.mark.parametrize("buffer", BUFFERS)
    def test_every_byte_truncation(self, buffer):
        _, writer = write_both(self.FIELDS)
        data = writer.getvalue()
        for cut in range(len(data) + 1):
            read_both(data[:cut], None, self._reads(), buffer)
