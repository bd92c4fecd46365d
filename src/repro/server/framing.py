"""Transport framing: delimiting wire frames on a byte stream.

The peer protocol frames (:mod:`repro.replication.wire`) are
self-checking (CRC trailer) but not self-delimiting — the simulated
network delivers them as discrete payloads, TCP delivers an undivided
byte stream that the kernel may split or merge anywhere. This layer
adds the minimal outer envelope that restores message boundaries:

    ``MAGIC (2 bytes) | length (u32 big-endian) | payload``

where ``payload`` is exactly one encoded wire frame. The magic prefix
is what makes the stream *re-synchronizable*: a corrupted or truncated
segment desynchronizes the reader, which scans forward to the next
magic and resumes — one damaged frame never takes down the connection,
let alone the daemon.

:class:`FrameReader` is the incremental reassembler: feed it byte
chunks exactly as the socket produced them (split mid-header, mid-
payload, or merged across frames — all equivalent) and pull complete
payloads out. Errors surface only as typed
:class:`repro.errors.DecodeError` subclasses:

- :class:`repro.errors.FrameSyncError` — the stream lost alignment
  (bad magic, or an implausible length field). The reader has already
  discarded bytes up to the next plausible boundary; the caller simply
  keeps pulling frames.
- A damaged length that is still plausible would make the reader wait
  for bytes that belong to the segments behind it, or swallow them.
  While a declared payload is incomplete, or complete but failing its
  wire-frame CRC, the reader checks each later magic inside it:
  if the bytes before that magic decode as one complete wire frame
  (CRC and the whole grammar, :func:`repro.replication.wire.
  decode_wire`), the length was damaged, and that frame is delivered
  with the length it really has. A strict prefix of an intact frame
  never decodes (every field, atom text included, is self-delimiting
  and trailing bytes are rejected), so payload content — a forged
  segment inside an atom, say — cannot move a boundary.
- Other payload-level damage is *not* detected here: a bit flip inside a
  correctly-delimited payload passes through and is rejected by
  ``decode_wire``'s CRC check, exactly like corruption on the
  simulated network.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional

from repro.errors import DecodeError, EncodingError, FrameSyncError
from repro.replication.wire import CRC_BYTES, decode_wire

#: Segment magic. Both bytes have the high bit set so a desynchronized
#: scan cannot realign on ASCII payload content by accident.
MAGIC = b"\xd7\x9c"
MAGIC_BYTES = len(MAGIC)
_LENGTH = struct.Struct(">I")
HEADER_BYTES = MAGIC_BYTES + _LENGTH.size

#: Ceiling on a single segment's payload. A full-document state
#: transfer is the largest legitimate frame; 16 MiB leaves generous
#: headroom while keeping a corrupted length field from making the
#: reader buffer gigabytes before noticing.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Decodes tried per suspect payload while looking for its real end. A
#: candidate is only decoded once its CRC matches, so honest traffic
#: spends none; the cap bounds what forged CRCs in content can cost.
_MAX_REPAIR_DECODES = 4


def encode_segment(payload: bytes) -> bytes:
    """Wrap one wire frame for the stream: magic, length, payload."""
    if not isinstance(payload, (bytes, bytearray)):
        raise EncodingError(
            f"segment payload must be bytes, got {type(payload).__name__}"
        )
    if len(payload) > DEFAULT_MAX_FRAME_BYTES:
        raise EncodingError(
            f"segment payload of {len(payload)} bytes exceeds the "
            f"{DEFAULT_MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return MAGIC + _LENGTH.pack(len(payload)) + bytes(payload)


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
        #: Counters for status reporting and tests.
        self.bytes_fed = 0
        self.frames_delivered = 0
        self.resyncs = 0
        self.bytes_discarded = 0
        self._reset_scan()

    def _reset_scan(self) -> None:
        """Forget the repair scan of the payload at the buffer front."""
        #: Next buffer offset to search for a magic, and the CRC-32 of
        #: ``buffer[HEADER_BYTES:crc_end]``.
        self._scan_from = HEADER_BYTES + CRC_BYTES
        self._crc_end = HEADER_BYTES
        self._crc = 0
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
        if not buffer.startswith(MAGIC[: len(buffer)]):
            self._resync(skip=0)
        if len(buffer) < HEADER_BYTES:
            return None
        (length,) = _LENGTH.unpack_from(buffer, MAGIC_BYTES)
        if length > self.max_frame_bytes:
            # An implausible length is treated as corruption of the
            # header itself: drop this magic and rescan — buffering
            # `length` bytes first would let one flipped bit demand
            # gigabytes.
            self._resync(skip=MAGIC_BYTES)
        end = HEADER_BYTES + length
        payload = bytes(buffer[HEADER_BYTES:end]) if len(buffer) >= end \
            else None
        if payload is None or not _closes_with_crc(payload):
            real_end = self._real_end(min(end, len(buffer)))
            if real_end is not None:
                # The length field was damaged; the frame is intact.
                end = real_end
                payload = bytes(buffer[HEADER_BYTES:end])
                self.resyncs += 1
            elif payload is None:
                return None
        del buffer[:end]
        self._reset_scan()
        self.frames_delivered += 1
        return payload

    def _real_end(self, limit: int) -> Optional[int]:
        """The offset where the front payload really ends, if a magic
        before ``limit`` follows bytes that decode as one whole wire
        frame; else None. Each buffered byte is searched and
        checksummed once across calls."""
        buffer = self._buffer
        while self._decodes_left:
            position = buffer.find(MAGIC, self._scan_from, limit)
            if position < 0:
                # A magic split across the limit is found next time.
                self._scan_from = max(self._scan_from,
                                      limit - MAGIC_BYTES + 1)
                return None
            self._scan_from = position + 1
            body_end = position - CRC_BYTES
            self._crc = zlib.crc32(buffer[self._crc_end:body_end], self._crc)
            self._crc_end = body_end
            if self._crc != int.from_bytes(buffer[body_end:position], "big"):
                continue
            self._decodes_left -= 1
            try:
                decode_wire(bytes(buffer[HEADER_BYTES:position]))
            except (DecodeError, EncodingError):
                continue
            return position
        return None

    def drain(self) -> List[bytes]:
        """Every currently-complete payload, swallowing resyncs (the
        counters still record them). Convenience for tests and for
        callers that do not need per-error handling."""
        frames: List[bytes] = []
        while True:
            try:
                frame = self.next_frame()
            except FrameSyncError:
                continue
            if frame is None:
                return frames
            frames.append(frame)

    def _resync(self, skip: int) -> None:
        """Discard up to the next magic at/after ``skip`` and raise."""
        buffer = self._buffer
        position = buffer.find(MAGIC, skip)
        if position < 0:
            # No boundary in sight. Keep the final byte in case it is
            # the first half of a magic split across chunks.
            discard = len(buffer)
            if buffer.endswith(MAGIC[:1]):
                discard -= 1
            del buffer[:discard]
        else:
            discard = position
            del buffer[:position]
        self._reset_scan()
        self.resyncs += 1
        self.bytes_discarded += discard
        raise FrameSyncError(
            f"stream lost frame alignment; discarded {discard} bytes "
            "to the next boundary",
            offset=discard,
        )
