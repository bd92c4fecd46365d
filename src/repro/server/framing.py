"""Transport framing: delimiting wire frames on a byte stream.

The peer protocol frames (:mod:`repro.replication.wire`) are
self-checking (CRC trailer) but not self-delimiting — the simulated
network delivers them as discrete payloads, TCP delivers an undivided
byte stream that the kernel may split or merge anywhere. This layer
adds the minimal outer envelope that restores message boundaries:

    ``MAGIC (1 byte) | length (LEB128, 1-4 bytes) | check | payload``

where ``length`` is unsigned, ``payload`` is exactly one encoded wire
frame and ``check`` is one byte, the CRC-8 (polynomial ``0x07``) of the
magic and length bytes. Every frame under 128 bytes — every envelope,
ack and heartbeat — costs a 3-byte header; the 16 MiB ceiling needs at
most 6. The magic is what
makes the stream *re-synchronizable*: a corrupted or truncated segment
desynchronizes the reader, which scans forward to the next magic and
resumes — one damaged frame never takes down the connection, let alone
the daemon. The check byte is what lets the reader distrust a length
before waiting on it: it catches every error burst of 8 bits or fewer
in the header.

:class:`FrameReader` is the incremental reassembler: feed it byte
chunks exactly as the socket produced them (split mid-header, mid-
payload, or merged across frames — all equivalent) and pull complete
payloads out. Errors surface only as typed
:class:`repro.errors.DecodeError` subclasses:

- :class:`repro.errors.FrameSyncError` — the stream lost alignment
  (bad magic, or a header that fails its check, has an over-long
  length or a length past the ceiling). The reader has already
  discarded bytes up to the next plausible boundary; the caller simply
  keeps pulling frames.
- Before giving a damaged header up, the reader looks for the frame
  behind it: at each later magic, up to the first one whose header
  checks, it tries the bytes before that magic as one whole wire frame
  after each possible header size (3-6 bytes). A segment whose header
  alone is damaged still delivers its frame. The reader only does this
  where a segment must start — at the stream's start or right after a
  delivered frame — so a resync that lands on a magic inside a payload
  costs no search.
- A header that checks but whose payload is incomplete, or complete but
  failing its wire-frame CRC, gets the same search with its one header
  size, bounded by the declared length: a length damaged past its check
  would otherwise make the reader wait for, or swallow, the segments
  behind it.
- In both searches a candidate frame must pass its CRC and the whole
  grammar (:func:`repro.replication.wire.decode_wire`). A strict prefix
  of an intact frame never decodes (every field, atom text included,
  is self-delimiting and trailing bytes are rejected), so payload
  content — a forged segment inside an atom, say — cannot move a
  boundary.
- Other payload-level damage is *not* detected here: a bit flip inside a
  correctly-delimited payload passes through and is rejected by
  ``decode_wire``'s CRC check, exactly like corruption on the
  simulated network.
"""

from __future__ import annotations

import zlib
from typing import List, NoReturn, Optional, Sequence, Tuple

from repro.errors import DecodeError, EncodingError, FrameSyncError
from repro.replication.wire import CRC_BYTES, decode_wire

#: Segment magic. The high bit is set, and the byte never occurs in
#: UTF-8 text, so a desynchronized scan does not realign on text
#: content by accident; it is neither byte of the older two-byte magic
#: ``d7 9c``, so a stream framed that way never lines up at offset 0.
MAGIC = b"\xfb"

#: Ceiling on a single segment's payload. A full-document state
#: transfer is the largest legitimate frame; 16 MiB leaves generous
#: headroom while keeping a corrupted length field from making the
#: reader buffer gigabytes before noticing.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Varint bytes a length may take: 7 bits each covers the ceiling.
_LENGTH_BYTES = 4
#: Every size a header can have: magic, 1-4 length bytes, check byte.
_HEADER_SIZES = tuple(range(3, 3 + _LENGTH_BYTES))

#: Decodes tried per suspect payload while looking for its real end. A
#: candidate is only decoded once its CRC matches, so honest traffic
#: spends none; the cap bounds what forged CRCs in content can cost.
_MAX_REPAIR_DECODES = 4


def _crc8_table(polynomial: int) -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc << 1) ^ polynomial if crc & 0x80 else crc << 1
        table.append(crc & 0xFF)
    return table


_CRC8 = _crc8_table(0x07)


def _crc8(data: bytes) -> int:
    crc = 0
    for byte in data:
        crc = _CRC8[crc ^ byte]
    return crc


def encode_segment(payload: bytes) -> bytes:
    """Wrap one wire frame for the stream: magic, length, check byte,
    payload."""
    if not isinstance(payload, (bytes, bytearray)):
        raise EncodingError(
            f"segment payload must be bytes, got {type(payload).__name__}"
        )
    length = len(payload)
    if length > DEFAULT_MAX_FRAME_BYTES:
        raise EncodingError(
            f"segment payload of {length} bytes exceeds the "
            f"{DEFAULT_MAX_FRAME_BYTES}-byte frame ceiling"
        )
    header = bytearray(MAGIC)
    while length >= 0x80:
        header.append(length & 0x7F | 0x80)
        length >>= 7
    header.append(length)
    header.append(_crc8(header))
    return bytes(header) + bytes(payload)


def _parse_header(buffer: bytearray, start: int,
                  ceiling: int) -> Optional[Tuple[int, Optional[int]]]:
    """The header at ``buffer[start]`` (which holds a magic) as
    ``(size, payload length)``; None while its bytes are incomplete.
    The length is None when the header fails its check, its varint
    runs past four bytes, or it declares more than ``ceiling``."""
    end = start + 1
    length = 0
    for shift in range(0, 7 * _LENGTH_BYTES, 7):
        if end >= len(buffer):
            return None
        byte = buffer[end]
        end += 1
        length |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
    else:
        return end - start, None
    if end >= len(buffer):
        return None
    if buffer[end] != _crc8(buffer[start:end]) or length > ceiling:
        return end + 1 - start, None
    return end + 1 - start, length


def _closes_with_crc(payload: bytes) -> bool:
    """Whether ``payload`` ends with the CRC-32 of the bytes before it,
    as every wire frame does."""
    if len(payload) <= CRC_BYTES:
        return False
    return zlib.crc32(memoryview(payload)[:-CRC_BYTES]) == \
        int.from_bytes(payload[-CRC_BYTES:], "big")


class FrameReader:
    """Incremental segment reassembler over an arbitrary chunking.

    Usage::

        reader.feed(chunk)            # as bytes arrive from the socket
        while True:
            try:
                frame = reader.next_frame()
            except FrameSyncError:
                continue              # realigned; keep pulling
            if frame is None:
                break                 # need more bytes
            handle(frame)

    ``next_frame`` returns one complete payload, ``None`` when the
    buffered bytes do not yet hold a whole segment, and raises
    :class:`FrameSyncError` after discarding garbage — the reader is
    always safe to keep using.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        #: Whether the buffer front is where a segment must start: the
        #: stream's start, or right after a frame that passed its CRC.
        self._aligned = True
        #: Bytes fed, and the framing damage met: every resync (a
        #: discard to the next magic, or a frame recovered behind a
        #: damaged length) and the bytes discarded. The one count of
        #: these events: the daemon's totals sum its readers'.
        self.bytes_fed = 0
        self.resyncs = 0
        self.bytes_discarded = 0
        self._reset_scan()

    def _reset_scan(self) -> None:
        """Forget the repair search of the segment at the buffer front."""
        #: Next buffer offset to search for a magic; the CRC-32 of
        #: ``buffer[start:crc_end]`` for each header size tried.
        self._scan_from = min(_HEADER_SIZES) + CRC_BYTES + 1
        self._crc_end = 0
        self._crcs: List[int] = []
        self._decodes_left = _MAX_REPAIR_DECODES

    def feed(self, chunk: bytes) -> None:
        """Append raw socket bytes (any chunking)."""
        self._buffer.extend(chunk)
        self.bytes_fed += len(chunk)

    @property
    def buffered(self) -> int:
        """Bytes held awaiting a complete segment."""
        return len(self._buffer)

    def next_frame(self) -> Optional[bytes]:
        """One complete payload, or None; FrameSyncError on garbage."""
        buffer = self._buffer
        if not buffer:
            return None
        if not buffer.startswith(MAGIC):
            self._resync(skip=0)
        header = _parse_header(buffer, 0, self.max_frame_bytes)
        if header is None:
            return None
        start, length = header
        if length is None:
            return self._repair_header()
        end = start + length
        payload = bytes(buffer[start:end]) if len(buffer) >= end else None
        if payload is not None and _closes_with_crc(payload):
            return self._deliver(payload, end, True)
        found = self._real_end((start,), min(end, len(buffer)), False)
        if found is not None:
            # The length was damaged past its check; the frame is intact.
            return self._deliver_repaired(*found)
        if payload is None:
            return None
        # Damage inside a delimited payload: decode_wire rejects it.
        return self._deliver(payload, end, False)

    def _repair_header(self) -> Optional[bytes]:
        """The front header failed its check: deliver the frame behind
        it if a later magic shows where that frame ends, wait while the
        answer may still arrive, else drop the magic and resync."""
        if self._aligned:
            found = self._real_end(_HEADER_SIZES, len(self._buffer), True)
            if found is not None:
                return self._deliver_repaired(*found)
            if self._decodes_left and len(self._buffer) <= \
                    _HEADER_SIZES[-1] + self.max_frame_bytes:
                return None
        self._resync(skip=len(MAGIC))

    def _deliver_repaired(self, start: int, end: int) -> bytes:
        self.resyncs += 1
        return self._deliver(bytes(self._buffer[start:end]), end, True)

    def _deliver(self, payload: bytes, end: int, intact: bool) -> bytes:
        """Drop the front segment and hand out its payload; only an
        intact frame proves the next segment starts right behind it."""
        del self._buffer[:end]
        self._reset_scan()
        self._aligned = intact
        return payload

    def _real_end(self, starts: Sequence[int], limit: int,
                  headerless: bool) -> Optional[Tuple[int, int]]:
        """``(start, end)`` of the front frame if a magic before
        ``limit`` follows bytes that, read from one of the header sizes
        in ``starts``, decode as one whole wire frame; else None. Each
        buffered byte is searched and checksummed once per size across
        calls. ``headerless`` (the front header failed its check) also
        ends the search at the first later magic whose header checks:
        that is where the next segment starts. An ended search spends
        its decodes, so ``_decodes_left`` reads 0."""
        buffer = self._buffer
        if not self._crcs:
            self._crcs = [0] * len(starts)
            self._crc_end = starts[0]
        while self._decodes_left:
            position = buffer.find(MAGIC, self._scan_from, limit)
            if position < 0:
                self._scan_from = max(self._scan_from, limit)
                return None
            if headerless:
                later = _parse_header(buffer, position, self.max_frame_bytes)
                if later is None:
                    return None  # its header is still arriving
            self._scan_from = position + 1
            body_end = position - CRC_BYTES
            trailer = int.from_bytes(buffer[body_end:position], "big")
            for index, start in enumerate(starts):
                if body_end <= start:
                    continue
                crc = zlib.crc32(
                    buffer[max(self._crc_end, start):body_end],
                    self._crcs[index],
                )
                self._crcs[index] = crc
                if crc != trailer or not self._decodes_left:
                    continue
                self._decodes_left -= 1
                try:
                    decode_wire(bytes(buffer[start:position]))
                except (DecodeError, EncodingError):
                    continue
                return start, position
            self._crc_end = max(self._crc_end, body_end)
            if headerless and later[1] is not None:
                self._decodes_left = 0
        return None

    def _resync(self, skip: int) -> NoReturn:
        """Discard up to the next magic at/after ``skip`` and raise."""
        buffer = self._buffer
        position = buffer.find(MAGIC, skip)
        discard = len(buffer) if position < 0 else position
        del buffer[:discard]
        self._reset_scan()
        self._aligned = False
        self.resyncs += 1
        self.bytes_discarded += discard
        raise FrameSyncError(
            f"stream lost frame alignment; discarded {discard} bytes "
            "to the next boundary",
            offset=discard,
        )
