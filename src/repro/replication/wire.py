"""The peer protocol: every replication message as bytes on the wire.

The paper's system model is asynchronous message passing over fair-lossy
links; nothing but bytes ever crosses a link. This module defines the
complete frame vocabulary one replica site may send another — the only
payloads :class:`repro.replication.network.SimulatedNetwork` accepts:

- :class:`EnvelopeFrame` — a causal-broadcast event: the sender's
  vector clock plus a compact batch frame from
  :mod:`repro.core.encoding` (writers produce nothing else; a bare v1
  operation from an older journal or peer is still read);
- :class:`AckFrame` — a gossiped applied-clock acknowledgement (drives
  the causal-stability frontier for SDIS tombstone GC);
- :class:`SyncRequest` — an anti-entropy probe: the requester's clock;
- :class:`SyncResponse` — the anti-entropy answer: one encoded state
  frame, the sender's frontier, and the sender's outstanding delete
  log (so a synced SDIS replica can purge inherited tombstones once
  they become causally stable);
- :class:`SyncDelta` — the *incremental* anti-entropy answer: a
  tree-walk state frame pruned to the regions the requester's frontier
  has not seen, plus the delete records past it (DESIGN.md §10);
- :class:`SyncDecline` — a graceful refusal with a reason and an
  optional try-this-peer hint, so a requester rotates instead of
  re-pelting a responder that cannot serve;
- the flatten commitment messages (:class:`~repro.replication.commit.
  PrepareMsg`, :class:`~repro.replication.commit.VoteMsg`,
  :class:`~repro.replication.commit.AbortMsg`) — serialized here, the
  protocol itself lives in :mod:`repro.replication.commit`.

Frame grammar (DESIGN.md §8): a wire frame opens with the shared v2
escape (2-bit tag ``3``), the reserved frame kind
:data:`repro.core.encoding.FRAME_WIRE`, and a 4-bit wire kind; the body
follows, then the stream is byte-padded and a 32-bit CRC over all body
bytes closes the frame. Vector clocks travel as a gamma-coded entry
count followed by ``(site, gamma(counter))`` pairs — a compact varint
layout whose cost tracks the number of *sites*, not the amount of
history. The envelope, the one frame sent per edit, spends no 48-bit
field at all: it opens with a site dictionary
(:func:`repro.core.encoding.write_site_dictionary`), names its origin
by index and writes its clock's counters in dictionary order.
Embedded core payloads (batch/state frames) ride as a gamma-coded bit
length plus their own bytes, so the inner codec stays byte-for-byte
the one :mod:`repro.core.encoding` defines.

``decode_wire`` is the single entry point: it verifies the CRC first
(raising :class:`repro.errors.CorruptFrameError` on a mismatch — the
receiver's reaction to a bit flip in transit) and then parses under the
same typed-:class:`repro.errors.DecodeError` discipline as the core
decoders. The simulated network treats a handler raising
:class:`DecodeError` as a lost transmission and retransmits, closing
the corruption → detection → retry loop end to end.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core.disambiguator import SITE_ID_BITS, Sdis, SiteId
from repro.core.encoding import (
    BATCH_FRAME_KIND,
    FRAME_KIND_BITS,
    FRAME_TAG,
    FRAME_WIRE,
    MODE_TAGS,
    TAG_MODES,
    WIRE_KIND_BITS,
    DocumentState,
    decode_frame,
    decode_guarded,
    encode_state_segments,
    finish_decode,
    read_posid,
    read_segments,
    read_site_dictionary,
    read_text,
    site_index_width,
    start_decode,
    write_posid,
    write_site_dictionary,
    write_text,
)
from repro.core.ops import DeleteOp, InsertOp, OpBatch, Operation
from repro.core.path import PosID
from repro.core.runs import AtomRun, Segment
from repro.errors import CorruptFrameError, DecodeError, EncodingError
from repro.replication.clock import VectorClock
from repro.replication.commit import AbortMsg, PrepareMsg, VoteMsg
from repro.util.bits import BitReader, BitWriter

# Wire frame kinds (4 bits after the FRAME_WIRE escape; the core
# batch frame holds BATCH_FRAME_KIND).
#: The fixed-width envelope of older writers (48-bit origin and clock
#: sites): still read, never written.
_KIND_ENVELOPE_FIXED = 0
_KIND_ACK = 1
_KIND_SYNC_REQUEST = 2
_KIND_SYNC_RESPONSE = 3
_KIND_PREPARE = 4
_KIND_VOTE = 5
_KIND_ABORT = 6
#: The segment-stream ``SyncDelta`` of older writers: still read
#: (:func:`_legacy_delta_state`), never written.
_KIND_SYNC_DELTA_SEGMENTS = 7
_KIND_SYNC_DECLINE = 8
_KIND_SYNC_DELTA = 9
#: The envelope, sites through a frame-level dictionary.
_KIND_ENVELOPE = 10

#: Human names of the wire kinds, for error attribution and the
#: daemon's per-frame-kind counters.
WIRE_KIND_NAMES = {
    _KIND_ENVELOPE_FIXED: "envelope",
    _KIND_ENVELOPE: "envelope",
    _KIND_ACK: "ack",
    _KIND_SYNC_REQUEST: "sync_request",
    _KIND_SYNC_RESPONSE: "sync_response",
    _KIND_PREPARE: "prepare",
    _KIND_VOTE: "vote",
    _KIND_ABORT: "abort",
    _KIND_SYNC_DELTA_SEGMENTS: "sync_delta",
    _KIND_SYNC_DECLINE: "sync_decline",
    _KIND_SYNC_DELTA: "sync_delta",
}

#: ``SyncDecline`` reasons: the responder cannot serve this request.
DECLINE_NOT_AHEAD = 0   #: requester's frontier is not behind ours
DECLINE_BUSY = 1        #: responder is itself fighting a causal gap
DECLINE_TRY_PEER = 2    #: we cannot help, but ``hint`` probably can

_DECLINE_REASON_BITS = 2
_DECLINE_REASONS = (DECLINE_NOT_AHEAD, DECLINE_BUSY, DECLINE_TRY_PEER)

#: Bytes of the trailing integrity check (CRC-32 over the body bytes).
CRC_BYTES = 4

#: One delete-log entry: (tombstone PosID, delete origin, sequence).
DeleteLogEntry = Tuple[PosID, SiteId, int]


# ---------------------------------------------------------------------------
# Frame dataclasses.
# ---------------------------------------------------------------------------


class _CachedWire:
    """Frames that keep their encoded bytes in an ``_encoded`` field:
    filled by the first :meth:`to_wire`, or by :func:`decode_wire` with
    the bytes as received (the frames are immutable, so the encoding
    is too)."""

    def to_wire(self) -> bytes:
        """This frame as one wire frame (cached)."""
        if not self._encoded:
            self._encoded.append(encode_wire(self))
        return self._encoded[0]


@dataclass(frozen=True)
class EnvelopeFrame(_CachedWire):
    """A causal-broadcast event, stamped with its origin's clock.

    ``clock`` includes the message's own event (the message is the
    ``clock.get(origin)``-th event of ``origin``); ``payload`` is the
    encoded batch frame exactly as :mod:`repro.core.encoding` wrote
    it, with its bit length alongside so padding bits never become
    ambiguous. A bare v1 operation, which older writers sent, decodes
    too (read-only).
    """

    origin: SiteId
    clock: VectorClock
    payload: bytes
    payload_bits: int
    #: Lazily-cached encoded form (same discipline as SyncResponse); a
    #: decoded envelope holds the bytes exactly as received, so the
    #: receiver journals them without a re-encode.
    _encoded: List[bytes] = field(default_factory=list, repr=False,
                                  compare=False)

    @property
    def sequence(self) -> int:
        return self.clock.get(self.origin)

    def decode_payload(self) -> Union[Operation, OpBatch]:
        """The carried event, decoded: one batch (or the bare
        operation an older writer sent)."""
        return decode_frame(self.payload, self.payload_bits)


@dataclass(frozen=True)
class AckFrame:
    """Gossiped acknowledgement: ``site`` has applied ``applied``."""

    site: SiteId
    applied: VectorClock


@dataclass(frozen=True)
class SyncRequest:
    """An anti-entropy probe: ``requester`` asks a peer for a state
    snapshot if the peer is ahead of ``clock``."""

    requester: SiteId
    clock: VectorClock


@dataclass(frozen=True)
class SyncResponse(_CachedWire):
    """An anti-entropy answer: one replica's document state and causal
    frontier.

    ``state`` is the encoded state frame (the tree-walk frame of
    :func:`repro.core.encoding.encode_state` + digest); ``clock`` the
    sender's vector clock at snapshot time. A receiver whose clock the
    snapshot dominates may replace its document and adopt the
    frontier; it stamps the snapshot's SDIS tombstones with ``clock``
    and purges them once that clock is causally stable. Writers leave
    ``delete_log`` empty; the field still parses, so older frames and
    checkpoints that carried the sender's delete records load (the
    stamp covers every delete in them).
    """

    site: SiteId
    clock: VectorClock
    state: DocumentState
    delete_log: Tuple[DeleteLogEntry, ...] = ()
    #: Lazily-cached encoded form (the frame is immutable, so the
    #: encoding is too); ``wire_bytes`` and ``to_wire`` share it.
    _encoded: List[bytes] = field(default_factory=list, repr=False,
                                  compare=False)

    @property
    def wire_bytes(self) -> int:
        """Measured bytes this response costs on the wire: the actual
        encoded frame length (state payload + clock + delete log +
        framing + CRC), not an estimate."""
        return len(self.to_wire())


#: Historical name of the anti-entropy transfer object (PR 4's direct
#: pull): the response frame *is* the transfer — one definition of the
#: state-shipping message, whether it travels or is handed over.
StateTransfer = SyncResponse


@dataclass(frozen=True)
class SyncDelta(_CachedWire):
    """An incremental anti-entropy answer: only what the requester is
    missing.

    ``base`` echoes the requester's clock; ``clock`` is the responder's
    frontier at harvest time. ``state`` is a faithful snapshot of
    every region the responder touched by an event *after* ``base``
    (the tree-walk frame pruned to those regions), and ``delete_log``
    carries the responder's retained delete records newer than ``base``
    (a UDIS delete leaves no trace in region state, so it must travel
    explicitly or the receiver would keep the atom alive). The receiver
    **merges** instead of replacing: duplicates are idempotent,
    concurrent local progress survives, and afterwards its clock may
    adopt ``clock`` pointwise — per-origin coverage, not whole-frontier
    domination.
    """

    site: SiteId
    clock: VectorClock
    base: VectorClock
    state: DocumentState
    delete_log: Tuple[DeleteLogEntry, ...] = ()
    #: Lazily-cached encoded form (same discipline as SyncResponse).
    _encoded: List[bytes] = field(default_factory=list, repr=False,
                                  compare=False)

    @property
    def wire_bytes(self) -> int:
        """Measured bytes this delta costs on the wire."""
        return len(self.to_wire())


@dataclass(frozen=True)
class SyncDecline:
    """A graceful anti-entropy refusal, instead of silence.

    The PR-5 responder stayed mute when it could not dominate the
    requester, leaving the requester to wait out another full gap-age
    window before trying anyone else. A decline is cheap, immediate
    routing information: ``reason`` says why this responder cannot
    serve (:data:`DECLINE_NOT_AHEAD`, :data:`DECLINE_BUSY`,
    :data:`DECLINE_TRY_PEER`), and ``hint`` optionally names a peer the
    responder believes is ahead (the origin of its own oldest buffered
    envelope). The requester's policy reacts by backing off this
    responder and rotating to another candidate at once.
    """

    site: SiteId
    reason: int = DECLINE_NOT_AHEAD
    hint: Optional[SiteId] = None


#: Everything :func:`decode_wire` can return.
WireFrame = Union[EnvelopeFrame, AckFrame, SyncRequest, SyncResponse,
                  SyncDelta, SyncDecline, PrepareMsg, VoteMsg, AbortMsg]


# ---------------------------------------------------------------------------
# Field codecs.
# ---------------------------------------------------------------------------


def write_clock(writer: BitWriter, clock: VectorClock) -> None:
    """Append a vector clock: gamma-coded entry count, then per entry
    the 48-bit site id and the gamma-coded counter (a varint: recent
    small counters cost a handful of bits, and the clock's wire cost
    grows with the number of sites, not with history length)."""
    entries = sorted((site, count) for site, count in clock.items() if count)
    writer.write_elias_gamma(len(entries) + 1)
    for site, count in entries:
        writer.write_bits(site, SITE_ID_BITS)
        writer.write_elias_gamma(count)


def read_clock(reader: BitReader) -> VectorClock:
    """Read a clock written by :func:`write_clock`."""
    entries = reader.read_elias_gamma() - 1
    counts = {}
    for _ in range(entries):
        site = reader.read_bits(SITE_ID_BITS)
        counts[site] = reader.read_elias_gamma()
    return VectorClock(counts)


def _write_envelope(writer: BitWriter, frame: "EnvelopeFrame") -> None:
    """An envelope body: the site dictionary of its clock's sites and
    its origin, the origin's index, a bit set when the origin has a
    clock entry, each clock counter (gamma-coded) in dictionary order,
    then the payload."""
    counts = {site: count for site, count in frame.clock.items() if count}
    index = write_site_dictionary(writer, counts.keys() | {frame.origin})
    writer.write_bits(index[frame.origin], site_index_width(len(index)))
    writer.write_bit(int(frame.origin in counts))
    for site in index:
        if site in counts:
            writer.write_elias_gamma(counts[site])
    _write_payload(writer, frame.payload, frame.payload_bits)


def _read_envelope(reader: BitReader) -> "EnvelopeFrame":
    sites = read_site_dictionary(reader)
    origin_index = reader.read_bits(site_index_width(len(sites)))
    if origin_index >= len(sites):
        raise EncodingError("envelope origin outside its dictionary")
    origin = sites[origin_index]
    counted = reader.read_bit()
    counts = {site: reader.read_elias_gamma() for site in sites
              if counted or site != origin}
    payload, bits = _read_payload(reader)
    return EnvelopeFrame(origin, VectorClock(counts), payload, bits)


def _write_payload(writer: BitWriter, payload: bytes, bits: int) -> None:
    """Append an embedded core payload: gamma-coded bit length plus the
    payload's bytes (its own padding included, so the inner bytes stay
    identical to what the core encoder produced). The byte count must
    match the bit length exactly — the reader recovers it as
    ``ceil(bits / 8)``, so any other length could not round-trip."""
    if len(payload) != (bits + 7) // 8:
        raise EncodingError(
            f"payload of {len(payload)} bytes does not match its "
            f"declared {bits} bits"
        )
    writer.write_elias_gamma(bits + 1)
    writer.write_bytes(payload)


def _read_payload(reader: BitReader) -> Tuple[bytes, int]:
    bits = reader.read_elias_gamma() - 1
    return reader.read_bytes((bits + 7) // 8), bits


def _write_state(writer: BitWriter, state: DocumentState) -> None:
    writer.write_bits(state.site, SITE_ID_BITS)
    writer.write_bit(MODE_TAGS[state.mode])
    write_text(writer, state.digest)
    writer.write_elias_gamma(state.atom_count + 1)
    writer.write_elias_gamma(state.run_segments + 1)
    writer.write_elias_gamma(state.op_segments + 1)
    _write_payload(writer, state.frame, state.frame_bits)


def _read_state(reader: BitReader) -> DocumentState:
    site = reader.read_bits(SITE_ID_BITS)
    mode = TAG_MODES[reader.read_bit()]
    digest = read_text(reader)
    atom_count = reader.read_elias_gamma() - 1
    run_segments = reader.read_elias_gamma() - 1
    op_segments = reader.read_elias_gamma() - 1
    frame, frame_bits = _read_payload(reader)
    return DocumentState(site, mode, frame, frame_bits, digest,
                         atom_count, run_segments, op_segments)


def _write_delete_log(writer: BitWriter,
                      log: Tuple[DeleteLogEntry, ...]) -> None:
    writer.write_elias_gamma(len(log) + 1)
    for posid, origin, sequence in log:
        write_posid(writer, posid)
        writer.write_bits(origin, SITE_ID_BITS)
        writer.write_elias_gamma(sequence + 1)


def _read_delete_log(reader: BitReader) -> Tuple[DeleteLogEntry, ...]:
    entries = reader.read_elias_gamma() - 1
    log = []
    for _ in range(entries):
        posid = read_posid(reader)
        origin = reader.read_bits(SITE_ID_BITS)
        sequence = reader.read_elias_gamma() - 1
        log.append((posid, origin, sequence))
    return tuple(log)


def _legacy_delta_state(site: SiteId,
                        segments: List[Segment]) -> DocumentState:
    """A wire-kind-7 ``SyncDelta`` body as a segment state frame, so both
    delta kinds reach one merge; its mode is ``sdis`` when the segments
    carry a tombstone or an SDIS disambiguator, else ``udis``."""
    sdis = any(
        isinstance(seg, DeleteOp)
        or (isinstance(seg, AtomRun) and seg.dis is not None
            and seg.dis[0] == "sdis")
        or (isinstance(seg, InsertOp)
            and any(type(e.dis) is Sdis for e in seg.posid.elements))
        for seg in segments)
    return encode_state_segments(segments, "sdis" if sdis else "udis",
                                 site, "")


# ---------------------------------------------------------------------------
# Frame encoding.
# ---------------------------------------------------------------------------


def encode_wire(frame: WireFrame) -> bytes:
    """Encode any peer-protocol frame as self-describing bytes.

    Layout: escape tag | FRAME_WIRE kind | 4-bit wire kind | body,
    byte-padded, then a 32-bit CRC over everything before it.
    """
    writer = BitWriter()
    writer.write_bits(FRAME_TAG, 2)
    writer.write_bits(FRAME_WIRE, FRAME_KIND_BITS)
    if isinstance(frame, EnvelopeFrame):
        writer.write_bits(_KIND_ENVELOPE, WIRE_KIND_BITS)
        _write_envelope(writer, frame)
    elif isinstance(frame, AckFrame):
        writer.write_bits(_KIND_ACK, WIRE_KIND_BITS)
        writer.write_bits(frame.site, SITE_ID_BITS)
        write_clock(writer, frame.applied)
    elif isinstance(frame, SyncRequest):
        writer.write_bits(_KIND_SYNC_REQUEST, WIRE_KIND_BITS)
        writer.write_bits(frame.requester, SITE_ID_BITS)
        write_clock(writer, frame.clock)
    elif isinstance(frame, SyncResponse):
        writer.write_bits(_KIND_SYNC_RESPONSE, WIRE_KIND_BITS)
        writer.write_bits(frame.site, SITE_ID_BITS)
        write_clock(writer, frame.clock)
        _write_state(writer, frame.state)
        _write_delete_log(writer, tuple(frame.delete_log))
    elif isinstance(frame, SyncDelta):
        writer.write_bits(_KIND_SYNC_DELTA, WIRE_KIND_BITS)
        writer.write_bits(frame.site, SITE_ID_BITS)
        write_clock(writer, frame.clock)
        write_clock(writer, frame.base)
        _write_state(writer, frame.state)
        _write_delete_log(writer, tuple(frame.delete_log))
    elif isinstance(frame, SyncDecline):
        writer.write_bits(_KIND_SYNC_DECLINE, WIRE_KIND_BITS)
        writer.write_bits(frame.site, SITE_ID_BITS)
        if frame.reason not in _DECLINE_REASONS:
            raise EncodingError(f"unknown decline reason {frame.reason}")
        writer.write_bits(frame.reason, _DECLINE_REASON_BITS)
        if frame.hint is None:
            writer.write_bit(0)
        else:
            writer.write_bit(1)
            writer.write_bits(frame.hint, SITE_ID_BITS)
    elif isinstance(frame, PrepareMsg):
        writer.write_bits(_KIND_PREPARE, WIRE_KIND_BITS)
        write_text(writer, frame.txn)
        write_posid(writer, frame.path)
        write_clock(writer, frame.snapshot)
        writer.write_bits(frame.initiator, SITE_ID_BITS)
    elif isinstance(frame, VoteMsg):
        writer.write_bits(_KIND_VOTE, WIRE_KIND_BITS)
        write_text(writer, frame.txn)
        writer.write_bits(frame.voter, SITE_ID_BITS)
        writer.write_bit(int(frame.yes))
    elif isinstance(frame, AbortMsg):
        writer.write_bits(_KIND_ABORT, WIRE_KIND_BITS)
        write_text(writer, frame.txn)
    else:
        raise EncodingError(f"unknown wire frame {frame!r}")
    body = writer.getvalue()
    return body + zlib.crc32(body).to_bytes(CRC_BYTES, "big")


def _read_wire(reader: BitReader) -> WireFrame:
    if reader.read_bits(2) != FRAME_TAG:
        raise EncodingError("not a wire frame (missing escape tag)")
    if reader.read_bits(FRAME_KIND_BITS) != FRAME_WIRE:
        raise EncodingError(
            "core v2 frame where a peer-protocol frame was expected"
        )
    kind = reader.read_bits(WIRE_KIND_BITS)
    if kind == _KIND_ENVELOPE:
        return _read_envelope(reader)
    if kind == _KIND_ENVELOPE_FIXED:
        origin = reader.read_bits(SITE_ID_BITS)
        clock = read_clock(reader)
        payload, bits = _read_payload(reader)
        return EnvelopeFrame(origin, clock, payload, bits)
    if kind == _KIND_ACK:
        site = reader.read_bits(SITE_ID_BITS)
        return AckFrame(site, read_clock(reader))
    if kind == _KIND_SYNC_REQUEST:
        requester = reader.read_bits(SITE_ID_BITS)
        return SyncRequest(requester, read_clock(reader))
    if kind == _KIND_SYNC_RESPONSE:
        site = reader.read_bits(SITE_ID_BITS)
        clock = read_clock(reader)
        state = _read_state(reader)
        return SyncResponse(site, clock, state, _read_delete_log(reader))
    if kind in (_KIND_SYNC_DELTA, _KIND_SYNC_DELTA_SEGMENTS):
        site = reader.read_bits(SITE_ID_BITS)
        clock = read_clock(reader)
        base = read_clock(reader)
        if kind == _KIND_SYNC_DELTA:
            state = _read_state(reader)
        else:
            state = _legacy_delta_state(site, read_segments(reader))
        return SyncDelta(site, clock, base, state, _read_delete_log(reader))
    if kind == _KIND_SYNC_DECLINE:
        site = reader.read_bits(SITE_ID_BITS)
        reason = reader.read_bits(_DECLINE_REASON_BITS)
        if reason not in _DECLINE_REASONS:
            raise DecodeError(f"unknown decline reason {reason}")
        hint = reader.read_bits(SITE_ID_BITS) if reader.read_bit() else None
        return SyncDecline(site, reason, hint)
    if kind == _KIND_PREPARE:
        txn = read_text(reader)
        path = read_posid(reader)
        snapshot = read_clock(reader)
        return PrepareMsg(txn, path, snapshot,
                          reader.read_bits(SITE_ID_BITS))
    if kind == _KIND_VOTE:
        txn = read_text(reader)
        voter = reader.read_bits(SITE_ID_BITS)
        return VoteMsg(txn, voter, bool(reader.read_bit()))
    if kind == _KIND_ABORT:
        return AbortMsg(read_text(reader))
    if kind == BATCH_FRAME_KIND:
        raise EncodingError("core batch frame where a peer-protocol frame "
                            "was expected")
    raise EncodingError(f"unknown wire frame kind {kind}")


def peek_wire_kind(data: bytes) -> Optional[str]:
    """Best-effort frame-kind attribution from the first header byte.

    The whole wire header — escape tag, ``FRAME_WIRE``, and the 4-bit
    wire kind — packs into exactly one byte, so a single intact byte
    names the frame kind even when the rest is damaged. Returns None
    for anything that does not look like a wire-frame header (empty
    input, a core frame, a flipped header byte). Purely advisory: the
    daemon's admission gate and error attribution read it; decoding
    never trusts it.
    """
    if not isinstance(data, (bytes, bytearray)) or not data:
        return None
    first = data[0]
    if first >> 6 != FRAME_TAG:
        return None
    if (first >> 4) & ((1 << FRAME_KIND_BITS) - 1) != FRAME_WIRE:
        return None
    return WIRE_KIND_NAMES.get(first & 0x0F)


def decode_wire(data: bytes) -> WireFrame:
    """Decode one peer-protocol frame.

    The CRC is verified before any parsing: damaged bytes raise
    :class:`repro.errors.CorruptFrameError` (a :class:`DecodeError`),
    which the simulated network treats as a lost transmission. Valid
    CRC but malformed contents — the hallmark of a sender bug, not of
    transit damage — still raise the plain :class:`DecodeError`.

    Every raised error carries attribution context: the frame kind
    when the header byte survived (:func:`peek_wire_kind`), the
    payload length, and — for parse failures past an intact CRC — the
    byte offset where decoding stopped. A CRC mismatch leaves the
    offset None: the damage location is unknowable from the checksum.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise DecodeError(
            f"wire frames are bytes, got {type(data).__name__}"
        )
    kind_name = peek_wire_kind(data)
    if len(data) <= CRC_BYTES:
        raise CorruptFrameError(
            f"wire frame too short ({len(data)} bytes)",
            frame_kind=kind_name, length=len(data),
        )
    body, crc = bytes(data[:-CRC_BYTES]), data[-CRC_BYTES:]
    if zlib.crc32(body) != int.from_bytes(crc, "big"):
        raise CorruptFrameError("wire frame CRC mismatch",
                                frame_kind=kind_name, length=len(data))
    reader = start_decode(body, None)
    try:
        frame = decode_guarded(_read_wire, reader, "wire frame")
        finish_decode(reader, "wire frame")
    except DecodeError as exc:
        if exc.frame_kind is None:
            exc.frame_kind = kind_name
        if exc.offset is None:
            exc.offset = reader.bit_position // 8
        if exc.length is None:
            exc.length = len(data)
        raise
    if isinstance(frame, (EnvelopeFrame, SyncResponse, SyncDelta)):
        # Seed the encoding cache with the bytes as received, so
        # ``wire_bytes`` on the receiver is the measured frame length
        # and the journal logs what arrived, without a re-encode.
        frame._encoded.append(bytes(data))
    return frame
