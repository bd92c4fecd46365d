"""Bit-packed wire encoding for identifiers, operations and frames.

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

Wire formats (run frames)
-------------------------

v1 ships one framed operation per atom. Frames are built on the shared
segment codec of :mod:`repro.core.runs` (see DESIGN.md §8):

- a **batch frame** (:func:`encode_batch`) carries a whole
  :class:`repro.core.ops.OpBatch` as runs plus singleton operations —
  a local burst of *n* atoms costs one base path, one dis pattern and
  the atoms instead of *n* framed inserts. The frame written today is
  the *compact* batch frame: one per-frame site dictionary, a
  same-as-batch-origin bit per operation, disambiguators as dictionary
  indices plus zigzag counter deltas, and every PosID front-coded
  against the one before it. The v2 batch frame (48-bit origins and
  the fixed-width fields of :func:`write_operation`) stays readable;
- a **segment state frame** (:func:`encode_state_segments`) carries a
  document as runs plus singleton records with absolute PosIDs. Every
  state payload now ships the tree-walk frame below; this one stays
  readable (old checkpoints, the read-only ``SyncDelta`` wire kind 7).

The fixed widths of section 5 (48-bit sites, 32-bit counters) stay in
:func:`write_posid`, :func:`write_operation` and
:func:`operation_cost_bits`: they are the paper's accounting (Table 1),
and the v1 records, segment state frames and disk images use them.

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
operation uses — followed by a 2-bit frame kind (v2 batch, segment
state, the :data:`FRAME_WIRE` escape, or tree-walk state), so one
reader (:func:`decode_frame`) accepts v1 payloads and every batch frame
alike. :data:`FRAME_WIRE` is followed by a 4-bit sub-kind: the peer
protocol of :mod:`repro.replication.wire` owns every value but
:data:`BATCH_FRAME_KIND`, the compact batch frame. The frame-kind field
has no free value, so that in-band sub-kind is the compact frame's
marker, and a v2 reader (which refuses :data:`FRAME_WIRE` outright)
rejects it with :class:`DecodeError`. Run atoms live in a trailing
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
from typing import Dict, List, Optional, Tuple, Union

from repro.core.disambiguator import (
    COUNTER_BITS,
    SITE_ID_BITS,
    Disambiguator,
    Sdis,
    Udis,
    validate_site_id,
)
from repro.core.node import (
    DEAD_ATOM,
    NO_ATOM,
    ArrayLeaf,
    MiniNode,
    PosNode,
    collect_leaf_slots,
)
from repro.core.ops import DeleteOp, FlattenOp, InsertOp, OpBatch, Operation
from repro.core.path import PLAIN, PathElement, PosID
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
#: The v2 batch frame: still read, never written.
_FRAME_BATCH = 0
#: Segment state frame: runs plus singleton records.
_FRAME_STATE = 1
#: The extended-kind escape: a :data:`WIRE_KIND_BITS` sub-kind follows.
#: :mod:`repro.replication.wire` owns the grammar behind every sub-kind
#: (envelopes, acks, sync, commitment) except :data:`BATCH_FRAME_KIND`.
FRAME_WIRE = 2
#: Width of the sub-kind after :data:`FRAME_WIRE`.
WIRE_KIND_BITS = 4
#: The sub-kind of the compact batch frame (:func:`encode_batch`).
BATCH_FRAME_KIND = 15
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


#: A decoded plain digit's element: the shared pair of
#: :data:`repro.core.path.PLAIN`, as the tree derives them.
_PLAIN_DIGIT = {"0": PLAIN[0], "1": PLAIN[1]}
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
    _write_path(writer, posid.elements, _dis_field)


def _gamma(value: int) -> Tuple[int, int]:
    """The Elias gamma code of ``value`` (>= 1) as one ``(value, width)``
    field, as :meth:`BitWriter.write_elias_gamma` writes it."""
    rest = value.bit_length() - 1
    return ((((1 << rest) - 1) << 1) << rest) | (value ^ (1 << rest)), \
        2 * rest + 1


def _write_path(writer: BitWriter, elements, dis_field,
                lead: Tuple[int, int] = (0, 0)) -> None:
    """The PosID layout with ``dis_field(dis) -> (value, width)`` as the
    disambiguator coding (fixed-width here, dictionary-coded in the
    compact batch frame), pushed as one field behind the ``lead`` field."""
    value, width = lead
    length, bits = _gamma(len(elements) + 1)
    value = (value << bits) | length
    width += bits
    for element in elements:
        dis = element.dis
        if dis is None:
            value = (value << 2) | (element.bit << 1)
            width += 2
        else:
            field, bits = dis_field(dis)
            value = (((value << 2) | (element.bit << 1) | 1) << bits) | field
            width += 2 + bits
    writer.write_bits(value, width)


def read_posid(reader: BitReader) -> PosID:
    """Read a PosID written by :func:`write_posid`."""
    return PosID(_read_path(reader, read_disambiguator))


def _read_path(reader: BitReader, read_dis) -> List[PathElement]:
    """The elements of a path written by :func:`_write_path`, with
    ``read_dis(reader)`` reading each disambiguator.

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
            elements.extend([_PLAIN_DIGIT[digit] for digit in branch[::2]])
        if flags:
            bit = reader.read_bits(2) >> 1
            elements.append(PathElement(bit, read_dis(reader)))
    return elements


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

    Atoms decode as strings (the only atom type the traces use).
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
# Site dictionaries and counters (compact batch frames, envelopes and,
# for the counters, tree-walk state frames).
# ---------------------------------------------------------------------------

#: Longest gamma-coded site delta a dictionary entry uses; a larger
#: delta is written as the raw 48-bit site instead, so an entry never
#: costs more than one bit over the fixed-width field.
_SITE_DELTA_MAX_BITS = (SITE_ID_BITS + 1) // 2


def site_index_width(count: int) -> int:
    """Bits of a reference into a dictionary of ``count`` sites (0 for
    one site: the reference is implied)."""
    return (count - 1).bit_length() if count else 0


def write_site_dictionary(writer: BitWriter, sites) -> Dict[int, int]:
    """Append a frame's site dictionary: gamma(count) (a frame names at
    least its origin), then the distinct ``sites`` ascending, each as a
    flag bit and either (``0``) the gamma-coded delta from the previous
    site (from -1 for the first) or (``1``), when that delta has more
    than :data:`_SITE_DELTA_MAX_BITS` bits, the raw 48-bit site. Small
    site ids cost a few bits; no entry costs more than 49. Returns the
    index of each site."""
    ordered = sorted(sites)
    value, width = _gamma(len(ordered))
    previous = -1
    for site in ordered:
        validate_site_id(site)
        delta = site - previous
        if delta.bit_length() <= _SITE_DELTA_MAX_BITS:
            code, bits = _gamma(delta)
            value = (value << (bits + 1)) | code
            width += bits + 1
        else:
            value = (((value << 1) | 1) << SITE_ID_BITS) | site
            width += 1 + SITE_ID_BITS
        previous = site
    writer.write_bits(value, width)
    return {site: i for i, site in enumerate(ordered)}


def read_site_dictionary(reader: BitReader) -> List[int]:
    """Read a dictionary written by :func:`write_site_dictionary`;
    an entry out of order or not in its canonical coding is corrupt."""
    count = reader.read_elias_gamma()
    if 2 * count > reader.remaining:
        raise EncodingError(f"{count} dictionary sites exceed the bits left")
    sites: List[int] = []
    previous = -1
    for _ in range(count):
        if reader.read_bit():
            site = reader.read_bits(SITE_ID_BITS)
            delta = site - previous
            if delta.bit_length() <= _SITE_DELTA_MAX_BITS:
                raise EncodingError("site dictionary entry out of order "
                                    "or not canonically coded")
        else:
            delta = reader.read_elias_gamma()
            if delta.bit_length() > _SITE_DELTA_MAX_BITS:
                raise EncodingError("site dictionary delta too wide")
            site = validate_site_id(previous + delta)
        sites.append(site)
        previous = site
    return sites


def _counter_field(last: List[int], index: int, counter: int
                   ) -> Tuple[int, int]:
    """A UDIS counter as one ``(value, width)`` field: the gamma code of
    the zigzagged delta from the previous counter of the same site
    (``last[index]``, updated) in the frame, plus one."""
    delta = counter - last[index]
    last[index] = counter
    return _gamma((delta << 1 if delta >= 0 else (-delta << 1) - 1) + 1)


def _read_counter(reader: BitReader, last: List[int], index: int) -> int:
    """Read a counter written as :func:`_counter_field`."""
    zigzag = reader.read_elias_gamma() - 1
    counter = last[index] + ((zigzag >> 1) ^ -(zigzag & 1))
    last[index] = counter
    return counter


# ---------------------------------------------------------------------------
# Frames: batches and document state as run segments.
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
    """Encode an :class:`OpBatch` as a compact batch frame.

    Consecutive insert bursts that realize a run shape (one
    ``insert_text``, one grouped allocation) collapse into run segments
    — base path + dis pattern + atoms — instead of per-op records;
    everything else ships as an operation record. Sites are written
    once, in the frame's dictionary (DESIGN.md §8.4). Returns
    ``(bytes, bit_length)``.
    """
    if min_run_atoms is None:
        segments = find_runs(batch.ops, batch.origin)
    else:
        segments = find_runs(batch.ops, batch.origin, min_run_atoms)
    origin = batch.origin
    # First pass: each segment's path, its front coding against the
    # previous path, and every site the frame names (a shared prefix
    # holds none the previous path did not).
    sites = {origin}
    records = []
    previous: Tuple[PathElement, ...] = ()
    for segment in segments:
        if isinstance(segment, AtomRun):
            tag, elements = None, segment.base
            if segment.dis is not None:
                sites.add(segment.dis[1])
        else:
            if isinstance(segment, InsertOp):
                tag, path = _TAG_INSERT, segment.posid
            elif isinstance(segment, DeleteOp):
                tag, path = _TAG_DELETE, segment.posid
            elif isinstance(segment, FlattenOp):
                tag, path = _TAG_FLATTEN, segment.path
            else:
                raise EncodingError(f"unknown operation {segment!r}")
            sites.add(segment.origin)
            elements = path.elements
        shared = 0
        limit = min(len(previous), len(elements))
        while shared < limit:
            last, element = previous[shared], elements[shared]
            if last is not element and (last.bit != element.bit
                                        or last.dis != element.dis):
                break
            shared += 1
        for element in elements[shared:]:
            if element.dis is not None:
                sites.add(element.dis.site)
        records.append((segment, tag, elements, shared))
        previous = elements
    writer = BitWriter()
    writer.write_bits((((_TAG_FRAME << FRAME_KIND_BITS) | FRAME_WIRE)
                       << WIRE_KIND_BITS) | BATCH_FRAME_KIND,
                      2 + FRAME_KIND_BITS + WIRE_KIND_BITS)
    coder = _SiteCoder(write_site_dictionary(writer, sites))
    index, width = coder.index, coder.width
    value, bits = index[origin], width
    for count in (batch.seq_start + 1, batch.seq_end - batch.seq_start + 1,
                  len(segments) + 1):
        code, code_bits = _gamma(count)
        value = (value << code_bits) | code
        bits += code_bits
    writer.write_bits(value, bits)
    table = AtomTable()
    for segment, tag, elements, shared in records:
        if tag is None:
            writer.write_bit(_SEG_RUN)
            coder.write_path(writer, elements, shared)
            dis = segment.dis
            if dis is None:
                writer.write_bits(int(segment.shape == PREFIX) << 1, 2)
            else:
                writer.write_bits((int(segment.shape == PREFIX) << 1) | 1, 2)
                writer.write_bits(*coder.dis_field(_pattern_head(dis)))
            write_run_record(writer, len(segment.atoms),
                             table.add_run(segment.atoms))
            continue
        # Segment bit, tag and the same-as-batch-origin bit, or the
        # origin's index, ahead of the path.
        if segment.origin == origin:
            head = ((_SEG_OP << 3) | (tag << 1) | 1, 4)
        else:
            head = (((((_SEG_OP << 3) | (tag << 1)) << width)
                     | index[segment.origin]), 4 + width)
        coder.write_path(writer, elements, shared, head)
        if tag == _TAG_INSERT:
            _write_atom(writer, segment.atom)
        elif tag == _TAG_FLATTEN:
            _write_atom(writer, segment.digest)
            if segment.txn is None:
                writer.write_bit(0)
            else:
                writer.write_bit(1)
                write_text(writer, segment.txn)
    _write_atom_table(writer, table)
    return writer.getvalue(), writer.bit_length


def _pattern_head(dis: Tuple) -> Disambiguator:
    """A run's dis pattern as its first disambiguator."""
    return Udis(dis[2], dis[1]) if dis[0] == "udis" else Sdis(dis[1])


class _SiteCoder:
    """One compact batch frame's site dictionary and coding state.

    A disambiguator is its 1-bit type tag, its site's dictionary index,
    and under UDIS its counter (:func:`_counter_field`, per site along
    the frame). Each PosID is front-coded against the previous one in
    the frame: gamma(shared elements + 1), then the rest as a path.
    """

    __slots__ = ("sites", "index", "width", "last", "previous")

    def __init__(self, index: Dict[int, int]) -> None:
        self.index = index
        self.sites = sorted(index, key=index.__getitem__)
        self.width = site_index_width(len(index))
        self.last = [0] * len(index)
        self.previous: Tuple[PathElement, ...] = ()

    def dis_field(self, dis: Disambiguator) -> Tuple[int, int]:
        site_index = self.index[dis.site]
        if type(dis) is Udis:
            counter, bits = _counter_field(self.last, site_index,
                                           dis.counter)
            return ((((_DIS_UDIS << self.width) | site_index) << bits)
                    | counter), 1 + self.width + bits
        if type(dis) is Sdis:
            return site_index, 1 + self.width
        raise EncodingError(f"unknown disambiguator type {dis!r}")

    def read_dis(self, reader: BitReader) -> Disambiguator:
        width = self.width
        field = reader.read_bits(1 + width)  # type tag, site index
        site_index = field & ((1 << width) - 1)
        if site_index >= len(self.sites):
            raise EncodingError("site index outside the dictionary")
        if field >> width == _DIS_UDIS:
            return Udis(_read_counter(reader, self.last, site_index),
                        self.sites[site_index])
        return Sdis(self.sites[site_index])

    def read_index(self, reader: BitReader) -> int:
        site_index = reader.read_bits(self.width)
        if site_index >= len(self.sites):
            raise EncodingError("site index outside the dictionary")
        return site_index

    def write_path(self, writer: BitWriter,
                   elements: Tuple[PathElement, ...], shared: int,
                   head: Tuple[int, int] = (0, 0)) -> None:
        """``elements``, of which the first ``shared`` repeat the
        previous path's, behind the ``head`` field."""
        code, bits = _gamma(shared + 1)
        _write_path(writer, elements[shared:], self.dis_field,
                    ((head[0] << bits) | code, head[1] + bits))

    def read_path(self, reader: BitReader) -> Tuple[PathElement, ...]:
        shared = reader.read_elias_gamma() - 1
        if shared > len(self.previous):
            raise EncodingError("shared prefix longer than the previous "
                                "PosID")
        elements = self.previous[:shared] + tuple(
            _read_path(reader, self.read_dis))
        self.previous = elements
        return elements


def _read_compact_batch(reader: BitReader) -> OpBatch:
    """The body of a compact batch frame (after its sub-kind)."""
    coder = _SiteCoder({site: i for i, site
                        in enumerate(read_site_dictionary(reader))})
    sites = coder.sites
    origin = sites[coder.read_index(reader)]
    seq_start = reader.read_elias_gamma() - 1
    seq_span = reader.read_elias_gamma() - 1
    parsed: List = []
    for _ in range(reader.read_count()):
        if reader.read_bit() == _SEG_RUN:
            base = coder.read_path(reader)
            shape = PREFIX if reader.read_bit() else CANONICAL
            dis: Optional[Tuple] = None
            if reader.read_bit():
                head = coder.read_dis(reader)
                dis = (("udis", head.site, head.counter)
                       if type(head) is Udis else ("sdis", head.site))
            parsed.append((base, shape, dis) + read_run_record(reader))
            continue
        header = reader.read_bits(3)  # tag, same-as-batch-origin
        tag = header >> 1
        if tag == _TAG_FRAME:
            raise EncodingError("unknown operation tag in a batch frame")
        op_origin = (origin if header & 1
                     else sites[coder.read_index(reader)])
        posid = PosID._of(coder.read_path(reader))
        if tag == _TAG_INSERT:
            parsed.append(InsertOp(posid, _read_atom(reader), op_origin))
        elif tag == _TAG_DELETE:
            parsed.append(DeleteOp(posid, op_origin))
        else:
            digest = _read_atom(reader)
            txn = read_text(reader) if reader.read_bit() else None
            parsed.append(FlattenOp(posid, digest, op_origin, txn=txn))
    table = _read_atom_table(reader)
    ops: List[object] = []
    for item in parsed:
        if isinstance(item, tuple):
            base, shape, dis, count, first = item
            run = AtomRun(base, tuple(table.get_run(first, count)), shape,
                          dis)
            ops.extend(run.insert_ops(origin))
        else:
            ops.append(item)
    return OpBatch(tuple(ops), origin, seq_start, seq_start + seq_span)


def _read_batch_frame(reader: BitReader) -> OpBatch:
    """The body of a v2 batch frame (read-only: nothing writes it)."""
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
    """Decode a batch frame (compact or v2) back into an :class:`OpBatch`.

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
    """Decode any core event payload: a v1 operation, a compact batch
    frame or a v2 batch frame.

    The frame escape tag occupies the one 2-bit value v1 never wrote, so
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
        if kind == _FRAME_BATCH:
            return _read_batch_frame(inner)
        if inner.read_bits(WIRE_KIND_BITS) != BATCH_FRAME_KIND:
            raise EncodingError(
                "peer-protocol frame: decode with "
                "repro.replication.wire.decode_wire"
            )
        return _read_compact_batch(inner)

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
    """Network cost of a batch shipped as one compact batch frame, in
    bits (the frame-level extension of :func:`operation_cost_bits`)."""
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

#: Slot states as a prefix code: a live atom, by far the most common,
#: costs the one bit ``1``; EMPTY and TOMBSTONE marks take two bits
#: ``(value, width)``.
_MARK_CODES = {NO_ATOM: (0, 2), DEAD_ATOM: (1, 2)}
#: Fewest bits one mini-node record can take (slot state + two
#: child-presence bits); bounds a decoded mini-node count.
_MINI_MIN_BITS = 3


def _write_slot(writer: BitWriter, atom: object) -> None:
    """A slot's state code and, when live, its atom as a text field;
    ``atom`` is the slot's ``atom`` field."""
    if atom is NO_ATOM or atom is DEAD_ATOM:
        writer.write_bits(*_MARK_CODES[atom])
    else:
        writer.write_bit(1)
        write_text(writer, atom)


def _read_slot(reader: BitReader, keep_tombstones: bool) -> object:
    """The ``atom`` field of a slot written by :func:`_write_slot`."""
    if reader.read_bit():
        return read_text(reader)
    if not reader.read_bit():
        return NO_ATOM
    if not keep_tombstones:
        raise EncodingError("tombstone in a discard-mode (UDIS) document")
    return DEAD_ATOM


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
    return [mini for mini in node.mini_nodes()
            if mini.atom is not NO_ATOM or _holds_ids(mini.left)
            or _holds_ids(mini.right)]


def _write_tree_sites(writer: BitWriter, root: PosNode, dis_type: type,
                      cover) -> Tuple[dict, int]:
    """The tree-walk frame's site dictionary: the distinct sites of the
    carried disambiguators (within ``cover``, see
    :class:`RegionFilter`), ascending, gamma-coded as deltas. Returns
    ``(index by site, index width)``."""
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
    return index, site_index_width(len(sites))


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
    index, site_width = _write_tree_sites(
        writer, root, Udis if udis else Sdis, cover)
    last = [0] * len(index)
    live = leaves = slots = 0
    stack = [(root, 0, cover)]
    while stack:
        node, depth, cover = stack.pop()
        atom = node.atom
        _write_slot(writer, atom)
        if atom is not NO_ATOM:
            slots += 1
            live += atom is not DEAD_ATOM
        minis = _kept_minis(node)
        writer.write_elias_gamma(len(minis) + 1)
        below: List[Tuple[PosNode, int, object]] = []
        for mini in minis:
            dis = mini.dis
            site_index = index[dis.site]
            writer.write_bits(site_index, site_width)
            if udis:
                writer.write_bits(*_counter_field(last, site_index,
                                                  dis.counter))
            atom = mini.atom
            _write_slot(writer, atom)
            if atom is not NO_ATOM:
                slots += 1
                live += atom is not DEAD_ATOM
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
    width = site_index_width(len(sites))
    last = [0] * len(sites)
    tags = [] if udis else [Sdis(site) for site in sites]
    height = 0
    stack: List[Tuple[PosNode, int]] = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > height:
            height = depth
        node.atom = _read_slot(reader, keep_tombstones)
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
                    dis: Disambiguator = Udis(
                        _read_counter(reader, last, site_index),
                        sites[site_index])
                else:
                    dis = tags[site_index]
                if previous is not None and dis.key <= previous:
                    raise EncodingError("mini-nodes out of order")
                previous = dis.key
                mini = MiniNode(node, dis)
                mini.atom = _read_slot(reader, keep_tombstones)
                if reader.read_bit():
                    mini.left = PosNode(mini, 0)
                    below.append((mini.left, depth + 1))
                if reader.read_bit():
                    mini.right = PosNode(mini, 1)
                    below.append((mini.right, depth + 1))
                minis.append(mini)
            node.set_minis(minis)
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
