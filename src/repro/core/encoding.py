"""Bit-packed wire encoding for identifiers, operations and v2 frames.

The evaluation reports identifier sizes in bits (Table 1) and estimates
network cost as the sum of PosID sizes (section 5.2), so the encoding
here is an actual bit format, not an approximation:

- a path element costs 2 bits (branch bit + disambiguator-presence flag)
  plus its disambiguator payload;
- an SDIS disambiguator is the 6-byte site id (48 bits);
- a UDIS disambiguator adds the 4-byte counter (32 + 48 = 80 bits);
- path lengths and atom sizes use Elias gamma codes.

``PosID.size_bits`` agrees with the encoded size by construction (both
are derived from ``PathElement.size_bits``).

Wire format v2 (run frames)
---------------------------

v1 ships one framed operation per atom. v2 adds *frames* built on the
shared segment codec of :mod:`repro.core.runs` (see DESIGN.md §8):

- a **batch frame** (:func:`encode_batch`) carries a whole
  :class:`repro.core.ops.OpBatch` as runs plus singleton operations —
  a local burst of *n* atoms costs one base path, one dis pattern and
  the atoms instead of *n* framed inserts;
- a **segment state frame** (:func:`encode_state_segments`) carries a
  document as runs plus singleton records with absolute PosIDs. Every
  state payload now ships the tree-walk frame below; this one stays
  readable (old checkpoints, the read-only ``SyncDelta`` wire kind 7).

Tree-walk state frame
---------------------

Every state payload (checkpoint, joiner, full sync, and ``SyncDelta``,
pruned to its regions) ships as its tree (:func:`encode_state`, DESIGN.md
§8.3): one preorder walk, in which
a node's position is implied by the walk instead of spelled out as a
PosID. Per position node: the plain slot's state (``1`` live, ``00``
empty, ``01`` tombstone) and its atom inline, a gamma-coded mini-node
count, then each mini-node as a site-dictionary index (plus, under
UDIS, its counter as a zigzag delta from the same site's previous
counter along the walk), its slot state and two child-presence bits;
then per plain child ``0`` (absent), ``10`` (node) or ``11`` (array
leaf, inline: the shared leaf record with its dead-slot bitmap). Child
nodes follow in the same order. Canonical fully-live subtrees at plain
children ship as leaf records, so the receiver holds every quiescent
region collapsed, as it did with the segment frame's runs.

Every frame opens with the 2-bit escape tag ``3`` — a value no v1
operation uses — followed by a 2-bit frame kind (batch, segment state,
the :data:`FRAME_WIRE` escape reserved for the peer protocol of
:mod:`repro.replication.wire`, or tree-walk state), so one reader
(:func:`decode_frame`) accepts v1 payloads and v2 frames alike. Run atoms live in a trailing
:class:`repro.core.runs.AtomTable`, referenced by the same RLE run
record the disk v2 leaf record uses; the wire and the disk share one
codec and cannot drift.

The public ``decode_*`` entry points raise the typed
:class:`repro.errors.DecodeError` on truncated, corrupt or
trailing-garbage input; the low-level ``read_*`` stream primitives keep
raising bare :class:`EncodingError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.disambiguator import (
    COUNTER_BITS,
    SITE_ID_BITS,
    Disambiguator,
    Sdis,
    Udis,
    validate_site_id,
)
from repro.core.node import (
    EMPTY,
    LIVE,
    TOMBSTONE,
    ArrayLeaf,
    MiniNode,
    PosNode,
    collect_leaf_slots,
)
from repro.core.ops import DeleteOp, FlattenOp, InsertOp, OpBatch, Operation
from repro.core.path import PathElement, PosID
from repro.core.runs import (
    AtomRun,
    AtomTable,
    CANONICAL,
    PREFIX,
    STATE_RUN_MIN_ATOMS,
    RegionFilter,
    Segment,
    find_runs,
    load_state_segments,
    read_leaf_record,
    read_run_record,
    write_leaf_record,
    write_run_record,
)
from repro.core.tree import TreedocTree
from repro.errors import DecodeError, EncodingError, PathError, TreeError
from repro.util.bits import BitReader, BitWriter

# Operation tags.
_TAG_INSERT = 0
_TAG_DELETE = 1
_TAG_FLATTEN = 2
#: The v2 frame escape: a 2-bit tag value no v1 operation record uses.
#: Public so :mod:`repro.replication.wire` can open its frames with the
#: same escape and stay self-describing under one tag grammar.
FRAME_TAG = 3
_TAG_FRAME = FRAME_TAG

#: Width of the frame-kind field following the escape tag.
FRAME_KIND_BITS = 2

# Frame kinds (2 bits after the escape tag).
_FRAME_BATCH = 0
#: Segment state frame: runs plus singleton records.
_FRAME_STATE = 1
#: Reserved for the peer protocol: :mod:`repro.replication.wire` owns
#: the grammar behind this kind (envelopes, acks, sync, commitment).
FRAME_WIRE = 2
#: Tree-walk state frame: the document as its tree.
_FRAME_TREE = 3

# Segment tags (1 bit each).
_SEG_OP = 0
_SEG_RUN = 1

# Disambiguator tags.
_DIS_SDIS = 0
_DIS_UDIS = 1

# Document modes (state frames). Public: the peer protocol's
# SyncResponse header (repro.replication.wire) carries the same tag.
MODE_TAGS = {"udis": 0, "sdis": 1}
TAG_MODES = {tag: mode for mode, tag in MODE_TAGS.items()}
_MODE_TAGS = MODE_TAGS
_TAG_MODES = TAG_MODES


_BRANCH = {"0": 0, "1": 1}
_UDIS_BITS = 1 + COUNTER_BITS + SITE_ID_BITS
_SDIS_BITS = 1 + SITE_ID_BITS
_SITE_MASK = (1 << SITE_ID_BITS) - 1


def _dis_field(dis: Disambiguator) -> Tuple[int, int]:
    """A disambiguator as one ``(value, width)`` field: the tag bit,
    then the payload (counter and site are range-checked when the
    :class:`Udis` / :class:`Sdis` is built)."""
    if isinstance(dis, Udis):
        return (((_DIS_UDIS << COUNTER_BITS | dis.counter) << SITE_ID_BITS)
                | dis.site, _UDIS_BITS)
    if isinstance(dis, Sdis):
        return (_DIS_SDIS << SITE_ID_BITS) | dis.site, _SDIS_BITS
    raise EncodingError(f"unknown disambiguator type {dis!r}")


def write_disambiguator(writer: BitWriter, dis: Disambiguator) -> None:
    """Append a disambiguator (1 tag bit + payload)."""
    writer.write_bits(*_dis_field(dis))


def read_disambiguator(reader: BitReader) -> Disambiguator:
    """Read a disambiguator written by :func:`write_disambiguator`."""
    if reader.read_bit() == _DIS_UDIS:
        value = reader.read_bits(COUNTER_BITS + SITE_ID_BITS)
        return Udis(value >> SITE_ID_BITS, value & _SITE_MASK)
    return Sdis(reader.read_bits(SITE_ID_BITS))


def write_posid(writer: BitWriter, posid: PosID) -> None:
    """Append a PosID: gamma-coded length, then the elements — each a
    2-bit (branch bit, has-dis) pair plus its disambiguator — pushed
    as one field."""
    elements = posid.elements
    writer.write_elias_gamma(len(elements) + 1)
    value = width = 0
    for element in elements:
        dis = element.dis
        if dis is None:
            value = (value << 2) | (element.bit << 1)
            width += 2
        else:
            field, bits = _dis_field(dis)
            value = (((value << 2) | (element.bit << 1) | 1) << bits) | field
            width += 2 + bits
    writer.write_bits(value, width)


def read_posid(reader: BitReader) -> PosID:
    """Read a PosID written by :func:`write_posid`.

    The element pairs still due are peeked as one field; the plain
    ones ahead of the first has-dis flag are taken in one read, so a
    path costs a few reads, not one per element. Every element needs
    at least its pair, so a stream too short for the peek is exhausted
    exactly where per-element reads would have found it."""
    depth = reader.read_elias_gamma() - 1
    elements: List[PathElement] = []
    while len(elements) < depth:
        pairs = depth - len(elements)
        window = reader.peek_bits(2 * pairs)
        flags = window & ((1 << 2 * pairs) - 1) // 3
        plain = pairs - (flags.bit_length() + 1) // 2 if flags else pairs
        if plain:
            branch = format(reader.read_bits(2 * plain), f"0{2 * plain}b")
            elements.extend([PathElement(_BRANCH[digit])
                             for digit in branch[::2]])
        if flags:
            bit = reader.read_bits(2) >> 1
            elements.append(PathElement(bit, read_disambiguator(reader)))
    return PosID(elements)


def encode_posid(posid: PosID) -> Tuple[bytes, int]:
    """Encode a lone PosID; returns ``(bytes, bit_length)``."""
    writer = BitWriter()
    write_posid(writer, posid)
    return writer.getvalue(), writer.bit_length


def decode_posid(data: bytes, bit_length: Optional[int] = None) -> PosID:
    """Decode a lone PosID.

    Raises :class:`repro.errors.DecodeError` on truncated input or
    trailing garbage (non-padding bits after the identifier).
    """
    reader = start_decode(data, bit_length)
    posid = decode_guarded(read_posid, reader, "PosID")
    finish_decode(reader, "PosID")
    return posid


def start_decode(data: bytes, bit_length: Optional[int]) -> BitReader:
    """Open a guarded decode: a :class:`BitReader` whose construction
    failures surface as the typed :class:`DecodeError`."""
    try:
        return BitReader(data, bit_length)
    except EncodingError as exc:
        raise DecodeError(str(exc)) from exc


def decode_guarded(read, reader: BitReader, what: str):
    """Run a stream reader, converting every failure mode of corrupt
    input — exhausted stream, invalid records, bad UTF-8, oversized
    fields — into the typed :class:`DecodeError`."""
    try:
        return read(reader)
    except DecodeError:
        raise
    except (EncodingError, PathError, TreeError, UnicodeDecodeError,
            ValueError, OverflowError, MemoryError) as exc:
        raise DecodeError(f"truncated or corrupt {what}: {exc}") from exc


def finish_decode(reader: BitReader, what: str) -> None:
    """Reject trailing garbage. With an explicit ``bit_length`` the
    payload must end exactly; without one, only whole-byte zero padding
    (at most 7 bits, as :meth:`BitWriter.getvalue` emits) may remain."""
    remaining = reader.remaining
    if remaining == 0:
        return
    if remaining >= 8:
        raise DecodeError(
            f"trailing garbage after {what}: {remaining} unread bits"
        )
    if reader.read_bits(remaining) != 0:
        raise DecodeError(f"non-zero padding after {what}")


def write_text(writer: BitWriter, value: object) -> None:
    """Append a text field as a length-prefixed UTF-8 payload (atoms,
    digests, transaction tags — every string on the wire uses this)."""
    text = value if isinstance(value, str) else repr(value)
    payload = text.encode("utf-8")
    writer.write_elias_gamma(len(payload) + 1)
    writer.write_bytes(payload)


def read_text(reader: BitReader) -> str:
    """Read a field written by :func:`write_text`."""
    length = reader.read_elias_gamma() - 1
    return reader.read_bytes(length).decode("utf-8")


def _write_atom(writer: BitWriter, atom: object) -> None:
    """Append an atom as a length-prefixed UTF-8 payload."""
    write_text(writer, atom)


def _read_atom(reader: BitReader) -> str:
    return read_text(reader)


def write_operation(writer: BitWriter, op: Operation) -> None:
    """Append an operation (2-bit tag + payload)."""
    if isinstance(op, InsertOp):
        writer.write_bits(_TAG_INSERT, 2)
        writer.write_bits(op.origin, SITE_ID_BITS)
        write_posid(writer, op.posid)
        _write_atom(writer, op.atom)
    elif isinstance(op, DeleteOp):
        writer.write_bits(_TAG_DELETE, 2)
        writer.write_bits(op.origin, SITE_ID_BITS)
        write_posid(writer, op.posid)
    elif isinstance(op, FlattenOp):
        writer.write_bits(_TAG_FLATTEN, 2)
        writer.write_bits(op.origin, SITE_ID_BITS)
        write_posid(writer, op.path)
        _write_atom(writer, op.digest)
        # The commitment-protocol transaction tag must survive the wire:
        # participants match the committed flatten to their vote lock by
        # it (see repro.replication.site).
        if op.txn is None:
            writer.write_bit(0)
        else:
            writer.write_bit(1)
            write_text(writer, op.txn)
    else:
        raise EncodingError(f"unknown operation {op!r}")


def read_operation(reader: BitReader) -> Operation:
    """Read an operation written by :func:`write_operation`.

    Atoms decode as strings (the only atom type the traces use); flatten
    operations decode without ``expected_atoms``.
    """
    tag = reader.read_bits(2)
    if tag == _TAG_FRAME:
        raise EncodingError(
            "v2 frame where a bare operation was expected; use decode_frame"
        )
    return _read_v1_operation(reader, tag)


def encode_operation(op: Operation) -> Tuple[bytes, int]:
    """Encode a lone operation; returns ``(bytes, bit_length)``."""
    writer = BitWriter()
    write_operation(writer, op)
    return writer.getvalue(), writer.bit_length


def decode_operation(data: bytes, bit_length: Optional[int] = None) -> Operation:
    """Decode a lone operation.

    Raises :class:`repro.errors.DecodeError` on truncated input or
    trailing garbage.
    """
    reader = start_decode(data, bit_length)
    op = decode_guarded(read_operation, reader, "operation")
    finish_decode(reader, "operation")
    return op


def operation_cost_bits(op: Operation) -> int:
    """Network cost of an operation in bits (section 5.2: a PosID plus,
    for inserts, the atom)."""
    return encode_operation(op)[1]


# ---------------------------------------------------------------------------
# v2 frames: batches and document state as run segments.
# ---------------------------------------------------------------------------


def _write_run_segment(writer: BitWriter, run: AtomRun,
                       table: AtomTable) -> None:
    """One run segment: base path, shape bit, dis pattern, and the
    shared RLE run record referencing the frame's atom table."""
    write_posid(writer, PosID(run.base))
    writer.write_bit(int(run.shape == PREFIX))
    dis = run.dis
    if dis is None:
        writer.write_bit(0)
    else:
        writer.write_bit(1)
        if dis[0] == "udis":
            writer.write_bit(_DIS_UDIS)
            writer.write_bits(dis[1], SITE_ID_BITS)
            writer.write_bits(dis[2], COUNTER_BITS)
        else:
            writer.write_bit(_DIS_SDIS)
            writer.write_bits(dis[1], SITE_ID_BITS)
    write_run_record(writer, len(run.atoms), table.add_run(run.atoms))


def _read_run_segment(reader: BitReader) -> Tuple:
    """Counterpart of :func:`_write_run_segment`; atoms resolve once
    the trailing table arrives: returns ``(base, shape, dis, count,
    first_ref)``."""
    base = read_posid(reader).elements
    shape = PREFIX if reader.read_bit() else CANONICAL
    dis: Optional[Tuple] = None
    if reader.read_bit():
        if reader.read_bit() == _DIS_UDIS:
            site = reader.read_bits(SITE_ID_BITS)
            counter = reader.read_bits(COUNTER_BITS)
            dis = ("udis", site, counter)
        else:
            dis = ("sdis", reader.read_bits(SITE_ID_BITS))
    count, first = read_run_record(reader)
    return base, shape, dis, count, first


def _write_atom_table(writer: BitWriter, table: AtomTable) -> None:
    writer.write_elias_gamma(len(table.payloads) + 1)
    for payload in table.payloads:
        writer.write_elias_gamma(len(payload) + 1)
        writer.write_bytes(payload)


def _read_atom_table(reader: BitReader) -> AtomTable:
    count = reader.read_elias_gamma() - 1
    payloads = []
    for _ in range(count):
        length = reader.read_elias_gamma() - 1
        payloads.append(reader.read_bytes(length))
    return AtomTable(payloads)


def _write_segments(writer: BitWriter, segments: List[Segment]) -> None:
    writer.write_elias_gamma(len(segments) + 1)
    table = AtomTable()
    for segment in segments:
        if isinstance(segment, AtomRun):
            writer.write_bit(_SEG_RUN)
            _write_run_segment(writer, segment, table)
        else:
            writer.write_bit(_SEG_OP)
            write_operation(writer, segment)
    _write_atom_table(writer, table)


def _read_segments(reader: BitReader) -> List[Segment]:
    count = reader.read_elias_gamma() - 1
    parsed: List = []
    for _ in range(count):
        if reader.read_bit() == _SEG_RUN:
            parsed.append(_read_run_segment(reader))
        else:
            parsed.append(read_operation(reader))
    table = _read_atom_table(reader)
    segments: List[Segment] = []
    for item in parsed:
        if isinstance(item, tuple):
            base, shape, dis, length, first = item
            atoms = tuple(table.get_run(first, length))
            segments.append(AtomRun(base, atoms, shape, dis))
        else:
            segments.append(item)
    return segments


#: Public name for the segment-stream reader: v2 batch frames and
#: segment state frames share the layout, and the peer protocol
#: (:mod:`repro.replication.wire`) still reads it from ``SyncDelta``
#: frames of the older wire kind 7, which nothing writes any more.
read_segments = _read_segments


def encode_batch(batch: OpBatch,
                 min_run_atoms: Optional[int] = None) -> Tuple[bytes, int]:
    """Encode an :class:`OpBatch` as a v2 batch frame.

    Consecutive insert bursts that realize a run shape (one
    ``insert_text``, one grouped allocation) collapse into run segments
    — base path + dis pattern + atoms — instead of per-op records;
    everything else ships as v1 operation records inside the frame.
    Returns ``(bytes, bit_length)``.
    """
    writer = BitWriter()
    writer.write_bits(_TAG_FRAME, 2)
    writer.write_bits(_FRAME_BATCH, FRAME_KIND_BITS)
    writer.write_bits(batch.origin, SITE_ID_BITS)
    writer.write_elias_gamma(batch.seq_start + 1)
    writer.write_elias_gamma(batch.seq_end - batch.seq_start + 1)
    if min_run_atoms is None:
        segments = find_runs(batch.ops, batch.origin)
    else:
        segments = find_runs(batch.ops, batch.origin, min_run_atoms)
    _write_segments(writer, segments)
    return writer.getvalue(), writer.bit_length


def _read_batch_frame(reader: BitReader) -> OpBatch:
    origin = reader.read_bits(SITE_ID_BITS)
    seq_start = reader.read_elias_gamma() - 1
    seq_span = reader.read_elias_gamma() - 1
    ops: List[object] = []
    for segment in _read_segments(reader):
        if isinstance(segment, AtomRun):
            ops.extend(segment.insert_ops(origin))
        else:
            ops.append(segment)
    return OpBatch(tuple(ops), origin, seq_start, seq_start + seq_span)


def decode_batch(data: bytes, bit_length: Optional[int] = None) -> OpBatch:
    """Decode a v2 batch frame back into an :class:`OpBatch`.

    Run segments expand to their per-atom insert operations, so the
    result applies through the ordinary batch paths and digests equal
    to the batch that was encoded.
    """
    batch = decode_frame(data, bit_length)
    if not isinstance(batch, OpBatch):
        raise DecodeError("payload is a lone v1 operation, not a batch frame")
    return batch


def decode_frame(data: bytes, bit_length: Optional[int] = None
                 ) -> Union[Operation, OpBatch]:
    """Decode any wire payload: a v1 operation or a v2 batch frame.

    The v2 escape tag occupies the one 2-bit value v1 never wrote, so
    v1 insert and delete payloads decode under this reader unchanged.
    The flatten record is the one exception to byte-level stability
    across releases: it gained an optional commitment-transaction tag
    (a presence bit after the digest), so flatten bytes written by the
    pre-wire-protocol encoder do not decode under this one. Flatten
    records only ever travel inside live envelopes — never persisted —
    so the format change has no migration surface.
    """
    reader = start_decode(data, bit_length)

    def read(inner: BitReader):
        tag = inner.read_bits(2)
        if tag != _TAG_FRAME:
            return _read_v1_operation(inner, tag)
        kind = inner.read_bits(FRAME_KIND_BITS)
        if kind in (_FRAME_STATE, _FRAME_TREE):
            raise EncodingError(
                "state frame: decode with decode_state, not decode_frame"
            )
        if kind == FRAME_WIRE:
            raise EncodingError(
                "peer-protocol frame: decode with "
                "repro.replication.wire.decode_wire"
            )
        if kind != _FRAME_BATCH:
            raise EncodingError(f"unknown frame kind {kind}")
        return _read_batch_frame(inner)

    payload = decode_guarded(read, reader, "frame")
    finish_decode(reader, "frame")
    return payload


def _read_v1_operation(reader: BitReader, tag: int) -> Operation:
    """Finish reading a v1 operation whose 2-bit tag was consumed."""
    origin = reader.read_bits(SITE_ID_BITS)
    if tag == _TAG_INSERT:
        posid = read_posid(reader)
        return InsertOp(posid, _read_atom(reader), origin)
    if tag == _TAG_DELETE:
        return DeleteOp(read_posid(reader), origin)
    path = read_posid(reader)
    digest = _read_atom(reader)
    txn = read_text(reader) if reader.read_bit() else None
    return FlattenOp(path, digest, origin, txn=txn)


def batch_cost_bits(batch: OpBatch) -> int:
    """Network cost of a batch shipped as one v2 frame, in bits (the
    frame-level extension of :func:`operation_cost_bits`)."""
    return encode_batch(batch)[1]


# ---------------------------------------------------------------------------
# Document state frames (anti-entropy snapshots).
# ---------------------------------------------------------------------------

#: Wire bytes a state snapshot spends beside the frame itself: the
#: 32-byte content digest plus a two-byte envelope (kind + length tag).
STATE_ENVELOPE_BYTES = 34


@dataclass(frozen=True)
class DocumentState:
    """One replica's document, or a delta's regions of it, as a state frame.

    The payload of catch-up, checkpoints and deltas. ``frame`` is a
    tree-walk frame (:func:`encode_state`) or, from older writers, a
    segment frame (:func:`encode_state_segments`); :func:`decode_state`
    reads both. ``digest`` is the content digest of the visible atoms,
    checked on load (a delta, which merges, has none). ``run_segments``
    counts the frame's array-leaf records (runs, in a segment frame) and
    ``op_segments`` its slot records outside them (singletons there).
    """

    site: int
    mode: str
    frame: bytes
    frame_bits: int
    digest: str
    atom_count: int
    run_segments: int
    op_segments: int

    @property
    def frame_bytes(self) -> int:
        return (self.frame_bits + 7) // 8

    @property
    def wire_bytes(self) -> int:
        """Total bytes this snapshot costs on the wire."""
        return self.frame_bytes + STATE_ENVELOPE_BYTES


def _state_header(kind: int, mode: str, site: int) -> BitWriter:
    if mode not in _MODE_TAGS:
        raise EncodingError(f"unknown document mode {mode!r}")
    writer = BitWriter()
    writer.write_bits(_TAG_FRAME, 2)
    writer.write_bits(kind, FRAME_KIND_BITS)
    writer.write_bits(site, SITE_ID_BITS)
    writer.write_bit(_MODE_TAGS[mode])
    return writer


def encode_state(tree: TreedocTree, mode: str, site: int, digest: str,
                 regions: Optional[RegionFilter] = None) -> DocumentState:
    """Encode a document as a tree-walk state frame (see the module
    docstring): the whole tree, or with a :class:`RegionFilter` only
    the regions the cover admits (the ``SyncDelta`` region frame)."""
    writer = _state_header(_FRAME_TREE, mode, site)
    atoms, leaves, slots = _write_tree(writer, tree.root, mode, regions)
    return DocumentState(site, mode, writer.getvalue(), writer.bit_length,
                         digest, atoms, leaves, slots)


def decode_state(state: DocumentState) -> Tuple[int, str, TreedocTree]:
    """Decode a state frame of either kind into a fresh tree:
    ``(site, mode, tree)``. Tree-walk frames build the nodes, mini-nodes
    and array leaves directly; segment frames load through
    :func:`repro.core.runs.load_state_segments`.

    Raises :class:`DecodeError` on truncation, trailing garbage, a
    frame that is not a state frame, or one whose structure is invalid.
    """

    def read(reader: BitReader):
        kind, site, mode = _read_state_header(reader, state,
                                              (_FRAME_TREE, _FRAME_STATE))
        tree = TreedocTree()
        if kind == _FRAME_TREE:
            _read_tree(reader, tree, mode)
        else:
            load_state_segments(tree, _read_segments(reader),
                                keep_tombstones=mode == "sdis")
        return site, mode, tree

    return _decode_state_frame(state, read)


def encode_state_segments(segments: List[Segment], mode: str, site: int,
                          digest: str) -> DocumentState:
    """Encode document state segments as a segment state frame."""
    writer = _state_header(_FRAME_STATE, mode, site)
    _write_segments(writer, segments)
    atom_count = 0
    run_segments = 0
    op_segments = 0
    for segment in segments:
        if isinstance(segment, AtomRun):
            run_segments += 1
            atom_count += len(segment.atoms)
        else:
            op_segments += 1
            if isinstance(segment, InsertOp):
                atom_count += 1
    return DocumentState(
        site, mode, writer.getvalue(), writer.bit_length, digest,
        atom_count, run_segments, op_segments,
    )


def decode_state_segments(state: DocumentState
                          ) -> Tuple[int, str, List[Segment]]:
    """Decode a segment state frame: ``(site, mode, segments)``."""

    def read(reader: BitReader):
        _, site, mode = _read_state_header(reader, state, (_FRAME_STATE,))
        return site, mode, _read_segments(reader)

    return _decode_state_frame(state, read)


def _read_state_header(reader: BitReader, state: DocumentState,
                       kinds: Tuple[int, ...]) -> Tuple[int, int, str]:
    if reader.read_bits(2) != _TAG_FRAME:
        raise EncodingError("not a state frame")
    kind = reader.read_bits(FRAME_KIND_BITS)
    if kind not in kinds:
        raise EncodingError(f"not a state frame of kind {kinds} ({kind})")
    site = reader.read_bits(SITE_ID_BITS)
    mode = _TAG_MODES[reader.read_bit()]
    if mode != state.mode:
        raise EncodingError(
            f"state frame is {mode}, its envelope says {state.mode}"
        )
    return kind, site, mode


def _decode_state_frame(state: DocumentState, read):
    reader = start_decode(state.frame, state.frame_bits)
    result = decode_guarded(read, reader, "state frame")
    finish_decode(reader, "state frame")
    return result


# -- tree-walk body ---------------------------------------------------------------

#: Slot states as a prefix code ``(value, width)``: live atoms, by far
#: the most common, cost one bit.
_SLOT_CODES = {LIVE: (1, 1), EMPTY: (0, 2), TOMBSTONE: (1, 2)}
#: Fewest bits one mini-node record can take (slot state + two
#: child-presence bits); bounds a decoded mini-node count.
_MINI_MIN_BITS = 3


def _write_slot(writer: BitWriter, state: str, atom: object) -> None:
    """A slot's state code and, when live, its atom as a text field."""
    writer.write_bits(*_SLOT_CODES[state])
    if state == LIVE:
        write_text(writer, atom)


def _read_slot(reader: BitReader,
               keep_tombstones: bool) -> Tuple[str, Optional[str]]:
    if reader.read_bit():
        return LIVE, read_text(reader)
    if not reader.read_bit():
        return EMPTY, None
    if not keep_tombstones:
        raise EncodingError("tombstone in a discard-mode (UDIS) document")
    return TOMBSTONE, None


def _write_atom_list(writer: BitWriter, atoms) -> None:
    """A leaf's live atoms, inline: gamma(count) (a leaf holds at least
    one), then a flag — set when every payload has one byte length,
    which is then written once and the payloads follow back to back —
    else each payload as a text field."""
    payloads = [(atom if isinstance(atom, str) else repr(atom)).encode("utf-8")
                for atom in atoms]
    writer.write_elias_gamma(len(payloads))
    width = len(payloads[0])
    if all(len(payload) == width for payload in payloads):
        writer.write_bit(1)
        writer.write_elias_gamma(width + 1)
        writer.write_bytes(b"".join(payloads))
        return
    writer.write_bit(0)
    for payload in payloads:
        writer.write_elias_gamma(len(payload) + 1)
        writer.write_bytes(payload)


def _read_atom_list(reader: BitReader) -> List[str]:
    count = reader.read_elias_gamma()
    if count > reader.remaining:
        raise EncodingError(f"leaf of {count} atoms exceeds the bits left")
    if reader.read_bit():
        width = reader.read_elias_gamma() - 1
        raw = reader.read_bytes(count * width)
        if width == 1:
            return list(raw.decode("ascii"))
        if width == 0:
            return [""] * count
        return [raw[i:i + width].decode("utf-8")
                for i in range(0, len(raw), width)]
    return [read_text(reader) for _ in range(count)]


def _holds_ids(child: Optional[PosNode]) -> bool:
    return child is not None and child.id_count > 0


def _kept_minis(node: PosNode) -> List[MiniNode]:
    """The mini-nodes a frame carries: id-holders, and empty ones still
    routing to an id-holder. Subtrees without a used identifier are
    pruned, as the segment frame (which names only id-holders) did."""
    return [mini for mini in node.minis
            if mini.state != EMPTY or _holds_ids(mini.left)
            or _holds_ids(mini.right)]


def _write_site_dictionary(writer: BitWriter, root: PosNode, dis_type: type,
                           cover) -> Tuple[dict, int]:
    """The per-frame site dictionary: the distinct sites of the carried
    disambiguators (within ``cover``, see :class:`RegionFilter`),
    ascending, gamma-coded as deltas. Returns ``(index by site, index
    width)``."""
    narrow = RegionFilter.narrow
    sites = set()
    stack = [(root, 0, cover)]
    while stack:
        node, depth, cover = stack.pop()
        if cover == ():
            continue  # disjoint from the cover: nothing of it ships
        below = depth + 1
        for mini in _kept_minis(node):
            if type(mini.dis) is not dis_type:
                raise EncodingError(
                    f"{type(mini.dis).__name__} disambiguator in a "
                    f"{dis_type.__name__} document"
                )
            sites.add(mini.dis.site)
            for bit, child in ((0, mini.left), (1, mini.right)):
                if _holds_ids(child):
                    stack.append((child, below, narrow(cover, depth, bit)))
        for bit, child in ((0, node.left), (1, node.right)):
            if isinstance(child, PosNode) and child.id_count:
                stack.append((child, below, narrow(cover, depth, bit)))
    writer.write_elias_gamma(len(sites) + 1)
    previous = -1
    for site in sorted(sites):
        writer.write_elias_gamma(site - previous)
        previous = site
    index = {site: i for i, site in enumerate(sorted(sites))}
    return index, (len(sites) - 1).bit_length() if sites else 0


def _write_tree(writer: BitWriter, root: PosNode, mode: str,
                regions: Optional[RegionFilter] = None
                ) -> Tuple[int, int, int]:
    """The tree-walk body; returns ``(live atoms, leaf records, slot
    records)``. The frame header's mode fixes the disambiguator kind.
    With a :class:`RegionFilter`, a subtree disjoint from the cover
    costs one absent-child bit and the rest ships as in a full frame
    (the root slot, ancestor spines and whole leaf records: idempotent
    duplicates for a merging receiver)."""
    udis = mode == "udis"
    cover = None if regions is None else regions.root_cover()
    narrow = RegionFilter.narrow
    index, site_width = _write_site_dictionary(
        writer, root, Udis if udis else Sdis, cover)
    last = [0] * len(index)
    live = leaves = slots = 0
    stack = [(root, 0, cover)]
    while stack:
        node, depth, cover = stack.pop()
        _write_slot(writer, node.plain_state, node.plain_atom)
        if node.plain_state != EMPTY:
            slots += 1
            live += node.plain_state == LIVE
        minis = _kept_minis(node)
        writer.write_elias_gamma(len(minis) + 1)
        below: List[Tuple[PosNode, int, object]] = []
        for mini in minis:
            dis = mini.dis
            site_index = index[dis.site]
            writer.write_bits(site_index, site_width)
            if udis:
                delta = dis.counter - last[site_index]
                last[site_index] = dis.counter
                writer.write_elias_gamma(
                    (delta << 1 if delta >= 0 else (-delta << 1) - 1) + 1)
            _write_slot(writer, mini.state, mini.atom)
            if mini.state != EMPTY:
                slots += 1
                live += mini.state == LIVE
            for bit, child in ((0, mini.left), (1, mini.right)):
                inner = narrow(cover, depth, bit)
                if _holds_ids(child) and inner != ():
                    writer.write_bit(1)
                    below.append((child, depth + 1, inner))
                else:
                    writer.write_bit(0)
        for bit, child in ((0, node.left), (1, node.right)):
            inner = narrow(cover, depth, bit)
            if child is None or not child.id_count or inner == ():
                writer.write_bit(0)
                continue
            if isinstance(child, ArrayLeaf):
                atoms, dead = child.atoms, child.dead
                live += child.live_count
            else:
                harvest = collect_leaf_slots(child, STATE_RUN_MIN_ATOMS)
                if harvest is None:
                    writer.write_bits(0b10, 2)
                    below.append((child, depth + 1, inner))
                    continue
                atoms, dead = harvest
                live += len(atoms)
            writer.write_bits(0b11, 2)
            write_leaf_record(writer, atoms, dead, _write_atom_list)
            leaves += 1
        stack.extend(reversed(below))
    return live, leaves, slots


def _read_tree(reader: BitReader, tree: TreedocTree, mode: str) -> None:
    """Build ``tree`` (empty) from a tree-walk body: nodes, mini-nodes
    and array leaves directly, iteratively, counts recomputed once."""
    udis = mode == "udis"
    keep_tombstones = not udis
    sites: List[int] = []
    site = -1
    for _ in range(reader.read_count()):
        site += reader.read_elias_gamma()
        sites.append(validate_site_id(site))
    width = (len(sites) - 1).bit_length() if sites else 0
    last = [0] * len(sites)
    tags = [] if udis else [Sdis(site) for site in sites]
    height = 0
    stack: List[Tuple[PosNode, int]] = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > height:
            height = depth
        node.plain_state, node.plain_atom = _read_slot(reader,
                                                       keep_tombstones)
        count = reader.read_count(_MINI_MIN_BITS)
        below: List[Tuple[PosNode, int]] = []
        if count:
            if not depth:
                raise EncodingError("mini-node at the root position node")
            minis: List[MiniNode] = []
            previous = None
            for _ in range(count):
                site_index = reader.read_bits(width)
                if site_index >= len(sites):
                    raise EncodingError("site index outside the dictionary")
                if udis:
                    zigzag = reader.read_elias_gamma() - 1
                    counter = last[site_index] + ((zigzag >> 1)
                                                  ^ -(zigzag & 1))
                    last[site_index] = counter
                    dis: Disambiguator = Udis(counter, sites[site_index])
                else:
                    dis = tags[site_index]
                if previous is not None and dis.key <= previous:
                    raise EncodingError("mini-nodes out of order")
                previous = dis.key
                mini = MiniNode(node, dis)
                mini.state, mini.atom = _read_slot(reader, keep_tombstones)
                if reader.read_bit():
                    mini.left = PosNode(mini, 0)
                    below.append((mini.left, depth + 1))
                if reader.read_bit():
                    mini.right = PosNode(mini, 1)
                    below.append((mini.right, depth + 1))
                minis.append(mini)
            node.minis = tuple(minis)
        for bit in (0, 1):
            if not reader.read_bit():
                continue
            if reader.read_bit():
                atoms, dead = read_leaf_record(reader, _read_atom_list)
                if dead and not keep_tombstones:
                    raise EncodingError(
                        "dead-slot bitmap in a discard-mode (UDIS) document"
                    )
                leaf = ArrayLeaf(node, bit, atoms, tree, dead=dead)
                node.set_child(bit, leaf)
                if depth + leaf.implicit_depth > height:
                    height = depth + leaf.implicit_depth
            else:
                child = PosNode(node, bit)
                node.set_child(bit, child)
                below.append((child, depth + 1))
        stack.extend(reversed(below))
    tree.recount_subtree(tree.root)
    tree.height = height
