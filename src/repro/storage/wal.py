"""The write-ahead log: an append-only file of framed byte records.

A WAL segment is a sequence of records, each a small fixed header plus
an opaque payload::

    record := kind(u8) | length(u32 BE) | crc32(payload)(u32 BE) | payload

The payloads are the stack's *existing* encoded frames — peer-protocol
envelopes (:func:`repro.replication.wire.encode_wire`, CRC-closed
themselves) for replica sites, core batch frames
(:func:`repro.core.encoding.encode_batch`) for the facade — so the WAL
introduces no second codec: the record header only adds framing and a
payload CRC-32, the same integrity discipline the wire uses.

Reading back is a scan (:func:`scan_records`): a record whose header is
incomplete, whose payload is shorter than declared, or whose CRC does
not match is a *torn or corrupted tail* — the scan stops there and
reports the byte offset of the damage, and recovery truncates the file
to the last intact record. Damage therefore surfaces as the typed
:class:`repro.errors.DecodeError` family internally and never as a
foreign exception.

Record kinds (what the owner does with a payload on replay):

==============  =============================================================
``META``        JSON bookkeeping written at segment creation (site, mode,
                ``op_seq``, ``dis_counter``) — restores counters a checkpoint
                state frame cannot carry.
``ENVELOPE``    one peer-protocol :class:`EnvelopeFrame` as wire bytes —
                a replica site's unit of durable history (local mints and
                remote deliveries alike).
``LOCAL``       a facade replica's locally minted batch (core batch frame).
``REMOTE``      a facade replica's merged remote batch or operation.
``OUTBOX``      a locally minted batch re-logged at checkpoint time because
                it was still undrained: restored to the outbox on recovery
                but *not* re-applied (the checkpoint state contains it);
                counted only when its segment's checkpoint is the one
                recovered.
``DRAIN``       the outbox was drained (shipped); empty payload.
==============  =============================================================
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from repro.errors import DecodeError, StorageError

#: Record kinds (the ``kind`` header byte).
RECORD_META = 0
RECORD_ENVELOPE = 1
RECORD_LOCAL = 2
RECORD_REMOTE = 3
RECORD_OUTBOX = 4
RECORD_DRAIN = 5

_KINDS = (RECORD_META, RECORD_ENVELOPE, RECORD_LOCAL, RECORD_REMOTE,
          RECORD_OUTBOX, RECORD_DRAIN)

_HEADER = struct.Struct(">BII")

#: Bytes every record spends beside its payload (kind + length + CRC).
RECORD_HEADER_BYTES = _HEADER.size


def pack_record(kind: int, payload: bytes) -> bytes:
    """Frame one record for appending."""
    if kind not in _KINDS:
        raise StorageError(f"unknown WAL record kind {kind}")
    return _HEADER.pack(kind, len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class WalRecord:
    """One intact record read back from a segment."""

    kind: int
    payload: bytes
    #: Byte offset of the record's header in its segment file.
    offset: int
    #: Byte offset just past the record (where the next one starts).
    end: int


def scan_records(data: bytes) -> Tuple[List[WalRecord], int]:
    """Parse a segment's bytes into intact records.

    Returns ``(records, good_end)`` where ``good_end`` is the offset of
    the first byte that is not part of an intact record — the recovery
    truncation point. A torn header, a payload cut short, an unknown
    kind byte or a CRC mismatch all end the scan there; they are the
    expected shapes of a crash mid-append (or a flipped bit in the
    tail) and are handled by truncation, not raised.
    """
    records: List[WalRecord] = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + RECORD_HEADER_BYTES > size:
            break  # torn header
        kind, length, crc = _HEADER.unpack_from(data, offset)
        start = offset + RECORD_HEADER_BYTES
        end = start + length
        if kind not in _KINDS or end > size:
            break  # unknown kind (corrupt header) or torn payload
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break  # bit-flipped payload (or a header length corruption)
        records.append(WalRecord(kind, payload, offset, end))
        offset = end
    return records, offset


def read_segment(path: Path) -> Tuple[List[WalRecord], int, int]:
    """Scan one segment file: ``(records, good_end, file_size)``."""
    data = Path(path).read_bytes()
    records, good_end = scan_records(data)
    return records, good_end, len(data)


def check_payload(payload: bytes, declared_crc: int) -> None:
    """Explicit integrity check for callers holding a raw payload
    (mirrors the scan's CRC test; raises the typed error)."""
    if zlib.crc32(payload) != declared_crc:
        raise DecodeError("WAL record CRC mismatch")
