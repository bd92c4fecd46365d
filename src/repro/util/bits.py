"""Bit-level packing helpers used by the wire and disk encodings.

Treedoc's evaluation reports PosID sizes in *bits* (Table 1), so the
encoders in :mod:`repro.core.encoding` and :mod:`repro.core.disk` write
genuinely bit-packed streams rather than byte-aligned approximations.

Bits are laid out most-significant-first within each byte. The codec
moves whole fields, not single bits (DESIGN.md §8.2):

- :class:`BitWriter` keeps the fewer-than-8 pending bits in a small int
  accumulator; a field of any width is one shift-and-or, and every
  whole byte it completes is flushed with one ``int.to_bytes``. Unary
  and Elias-gamma codes are built as one integer and pushed at once;
  byte-aligned ``write_bytes`` is a plain ``extend``.
- :class:`BitReader` reads a field from the few bytes it spans —
  ``int.from_bytes`` on a slice, then shift and mask — so a read costs
  O(field), never O(stream). Unary runs are counted a window at a time
  with ``bit_length`` on the inverted window; byte-aligned
  ``read_bytes`` is a slice.

The stream is deliberately *not* held as one big integer: every field
read would then shift an O(frame) number, which is quadratic over a
state frame of tens of kilobytes. The bit-at-a-time implementation
these classes replaced lives on in ``tests/util/test_bits.py`` as the
differential reference the fast paths must match bit for bit — bytes,
values, lengths, positions and errors alike.
"""

from __future__ import annotations

from repro.errors import EncodingError

#: Bits :meth:`BitReader.read_unary` inspects per step; longer runs of
#: ones loop window by window.
UNARY_WINDOW = 64


def bits_for_int(value: int) -> int:
    """Number of bits needed to represent ``value`` (at least 1)."""
    if value < 0:
        raise EncodingError(f"cannot size negative value {value}")
    return max(1, value.bit_length())


class BitWriter:
    """Append-only bit stream writer.

    Bits are accumulated most-significant-first within each byte, matching
    the top-to-bottom, left-to-right layout of the on-disk heap array
    described in section 5.2 of the paper.
    """

    __slots__ = ("_bytes", "_acc", "_pending")

    def __init__(self) -> None:
        self._bytes = bytearray()
        #: The last ``_pending`` (< 8) bits written, not yet a whole byte.
        self._acc = 0
        self._pending = 0

    def __len__(self) -> int:
        return len(self._bytes) * 8 + self._pending

    def _push(self, value: int, width: int) -> None:
        """Append ``width`` bits of an already-validated ``value``."""
        acc = (self._acc << width) | value
        pending = self._pending + width
        if pending >= 8:
            spare = pending & 7
            self._bytes += (acc >> spare).to_bytes(pending >> 3, "big")
            acc &= (1 << spare) - 1
            pending = spare
        self._acc = acc
        self._pending = pending

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise EncodingError(f"bit must be 0 or 1, got {bit!r}")
        self._push(int(bit), 1)

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, most significant first."""
        if width < 0:
            raise EncodingError(f"width must be non-negative, got {width}")
        if value < 0 or (width < value.bit_length()):
            raise EncodingError(f"value {value} does not fit in {width} bits")
        self._push(int(value), width)

    def write_unary(self, value: int) -> None:
        """Append ``value`` as unary: ``value`` ones followed by a zero."""
        if value < 0:
            raise EncodingError(f"unary value must be non-negative: {value}")
        self._push(((1 << value) - 1) << 1, value + 1)

    def write_elias_gamma(self, value: int) -> None:
        """Append ``value`` (>= 1) using Elias gamma coding: the unary
        code of ``width - 1``, then ``value`` without its leading one."""
        if value < 1:
            raise EncodingError(f"elias-gamma needs value >= 1, got {value}")
        rest = value.bit_length() - 1
        self._push(((((1 << rest) - 1) << 1) << rest) | (value ^ (1 << rest)),
                   2 * rest + 1)

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes (8 bits each)."""
        if not self._pending:
            self._bytes += data
        elif data:
            self._push(int.from_bytes(data, "big"), 8 * len(data))

    def getvalue(self) -> bytes:
        """Return the accumulated bytes (final byte zero-padded)."""
        if not self._pending:
            return bytes(self._bytes)
        tail = self._acc << (8 - self._pending)
        return bytes(self._bytes) + bytes((tail,))

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return len(self._bytes) * 8 + self._pending


class BitReader:
    """Sequential reader over a bit stream produced by :class:`BitWriter`.

    A read that runs past the end raises :class:`EncodingError` and
    leaves :attr:`bit_position` at the end of the stream.
    """

    __slots__ = ("_data", "_bit_count", "_position")

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        if not isinstance(data, bytes):
            data = bytes(data)
        self._data = data
        self._bit_count = len(data) * 8 if bit_length is None else bit_length
        if self._bit_count > len(data) * 8:
            raise EncodingError("bit_length exceeds the supplied data")
        self._position = 0

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return self._bit_count - self._position

    @property
    def bit_position(self) -> int:
        """Bits consumed so far (error attribution reads this to say
        *where* in a payload decoding stopped)."""
        return self._position

    def _exhausted(self) -> EncodingError:
        self._position = self._bit_count
        return EncodingError("bit stream exhausted")

    def read_bit(self) -> int:
        """Read and return the next bit."""
        position = self._position
        if position >= self._bit_count:
            raise self._exhausted()
        self._position = position + 1
        return (self._data[position >> 3] >> (7 - (position & 7))) & 1

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits and return them as an unsigned integer."""
        if width < 0:
            raise EncodingError(f"width must be non-negative, got {width}")
        start = self._position
        end = start + width
        if end > self._bit_count:
            raise self._exhausted()
        self._position = end
        last = (end + 7) >> 3
        window = int.from_bytes(self._data[start >> 3:last], "big")
        return (window >> ((last << 3) - end)) & ((1 << width) - 1)

    def peek_bits(self, width: int) -> int:
        """The next ``width`` bits, as :meth:`read_bits` would return
        them, without consuming them. Too few bits left raises exactly
        as :meth:`read_bits` does, leaving the position at the end."""
        position = self._position
        value = self.read_bits(width)
        self._position = position
        return value

    def read_unary(self) -> int:
        """Read a unary-coded value (count of ones before the first zero)."""
        count = 0
        while True:
            width = min(UNARY_WINDOW, self._bit_count - self._position)
            if width <= 0:
                raise self._exhausted()
            zeros = ~self.peek_bits(width) & ((1 << width) - 1)
            if zeros:
                ones = width - zeros.bit_length()
                self._position += ones + 1
                return count + ones
            self._position += width
            count += width

    def read_elias_gamma(self) -> int:
        """Read an Elias-gamma-coded value (>= 1). A code that fits the
        next :data:`UNARY_WINDOW` bits is taken from one peek."""
        position = self._position
        width = min(UNARY_WINDOW, self._bit_count - position)
        if width > 0:
            window = self.peek_bits(width)
            zeros = ~window & ((1 << width) - 1)
            rest = width - zeros.bit_length()
            if zeros and 2 * rest < width:
                self._position = position + 2 * rest + 1
                return ((1 << rest)
                        | (window >> (width - 2 * rest - 1))
                        & ((1 << rest) - 1))
        rest = self.read_unary()
        return (1 << rest) | self.read_bits(rest)

    def read_count(self, min_bits: int = 1) -> int:
        """Read a gamma-coded item count (stored as ``count + 1``) and
        reject it unless ``count`` items of at least ``min_bits`` bits
        each still fit in the stream — a corrupt count fails here,
        before a decoder allocates anything for it."""
        count = self.read_elias_gamma() - 1
        if count * min_bits > self.remaining:
            raise EncodingError(
                f"count {count} exceeds the {self.remaining} bits left"
            )
        return count

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` whole bytes."""
        if count <= 0:
            return b""
        start = self._position
        if start & 7:
            return self.read_bits(8 * count).to_bytes(count, "big")
        if start + 8 * count > self._bit_count:
            raise self._exhausted()
        self._position = start + 8 * count
        return self._data[start >> 3:(start >> 3) + count]
