"""On-disk Treedoc format (section 5.2).

The paper stores a Treedoc like a binary heap: nodes top to bottom, line
by line, left to right; absent positions are filled with a special
marker, and marker runs are run-length encoded. Each entry carries the
node's disambiguator(s) and a reference into a separate atom file.

This module implements that format faithfully:

- the tree skeleton (plain children of position nodes) is laid out
  level by level; within a level, present positions are emitted left to
  right, and the gaps between them are gamma-coded run lengths (the RLE
  of marker sequences);
- an entry holds the plain slot's state and atom reference, plus the
  mini-node array (disambiguator, state, atom reference each). The paper
  notes mini-node arrays "do not occur in our tests"; they do occur
  under concurrency, so entries support them;
- children *of mini-nodes* cannot be addressed by heap position (they
  would collide with the major node's children), so each mini entry may
  carry an escape: a recursively encoded sub-document for each child
  side. Serialized traces never take the escape, matching the paper;
- atoms live in a separate byte stream ("stored in a separate file"),
  referenced by index.

Format v2 (live mixed storage, section 4.2): a plain child slot may
hold an array leaf instead of a subtree. The v2 record spends two bits
per present child — tree or leaf — and serializes a leaf inline as an
RLE atom run: the leaf's atoms are appended to the atom file
contiguously, so one (count, first-reference) pair names them all.
Cold documents therefore load back as array leaves **without
exploding**.

Format v3 (tombstone-tolerant leaves): the leaf record gains an
optional dead-slot bitmap sidecar — one flag bit, and when set, a
gamma-coded dead count followed by gamma-coded offset deltas, ahead of
the run record (which then carries only the *live* atoms; dead slots
have no payload). SDIS regions whose tombstones are stable can
therefore persist collapsed.

:func:`save` writes v3 only. The reader keeps all three formats: v1
images (no leaves possible) and v2 images (leaves, no bitmap) still
load.

The run record and the atom file are the shared segment codec of
:mod:`repro.core.runs` (``write_run_record`` / ``AtomTable``) — the
same layout the v2 *wire* frames use, so disk and wire cannot drift.

``measure_on_disk`` reports the Table 1 "On-disk overhead": the tree
bytes, i.e. everything except the atom payload itself.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.encoding import read_disambiguator, write_disambiguator
from repro.core.node import (
    DEAD_ATOM,
    NO_ATOM,
    ArrayLeaf,
    PosNode,
    subtree_height,
)
from repro.core.runs import (
    AtomTable,
    read_leaf_record,
    read_run_record,
    write_leaf_record,
    write_run_record,
)
from repro.core.tree import TreedocTree
from repro.errors import DecodeError, EncodingError
from repro.util.bits import BitReader, BitWriter
from repro.util.files import atomic_write_bytes

#: Two-bit slot tags: 0 EMPTY, 1 LIVE (an atom-file index follows),
#: 2 TOMBSTONE.
_LIVE_TAG = 1
_MARK_TAGS = {NO_ATOM: 0, DEAD_ATOM: 2}
_TAG_MARKS = {tag: mark for mark, tag in _MARK_TAGS.items()}

#: Current on-disk format: v2 added array-leaf child records; v3 adds
#: the optional dead-slot bitmap sidecar to the leaf record.
FORMAT_VERSION = 3


@dataclass
class DiskImage:
    """A serialized Treedoc: tree bytes plus the atom file."""

    tree_bytes: bytes
    tree_bits: int
    atom_payloads: List[bytes]
    #: Record format the tree bytes use (see module docstring).
    version: int = field(default=FORMAT_VERSION)

    @property
    def tree_size_bytes(self) -> int:
        """On-disk size of the tree structure (the overhead)."""
        return (self.tree_bits + 7) // 8

    @property
    def atom_size_bytes(self) -> int:
        """On-disk size of the atom file (the document proper)."""
        return sum(len(p) for p in self.atom_payloads)


#: The atom file is the shared atom table of :mod:`repro.core.runs`.
_AtomFile = AtomTable


def _write_slot(writer: BitWriter, atom: object, atoms: _AtomFile) -> None:
    """A slot's tag, and when LIVE its atom-file index; ``atom`` is the
    slot's ``atom`` field."""
    if atom is NO_ATOM or atom is DEAD_ATOM:
        writer.write_bits(_MARK_TAGS[atom], 2)
    else:
        writer.write_bits(_LIVE_TAG, 2)
        writer.write_elias_gamma(atoms.add(atom) + 1)


def _read_slot(reader: BitReader, payloads: List[bytes]) -> object:
    """The ``atom`` field of a slot written by :func:`_write_slot`."""
    tag = reader.read_bits(2)
    if tag == _LIVE_TAG:
        index = reader.read_elias_gamma() - 1
        return payloads[index].decode("utf-8")
    return _TAG_MARKS[tag]


def _write_leaf(writer: BitWriter, leaf: ArrayLeaf,
                atoms: _AtomFile) -> None:
    """An array-leaf record: the shared leaf record of
    :mod:`repro.core.runs` (:func:`repro.core.runs.write_leaf_record`)
    — the dead-slot bitmap sidecar first, then the shared RLE run
    record of only the live atoms, appended to the atom file
    contiguously so one (count, first-reference) pair names them all."""

    def write_live(out: BitWriter, live) -> None:
        write_run_record(out, len(live), atoms.add_run(live))

    write_leaf_record(writer, leaf.atoms, leaf.dead, write_live)


def _read_leaf(reader: BitReader, parent, bit: int,
               payloads: List[bytes], version: int) -> ArrayLeaf:
    def read_live(inp: BitReader) -> List[object]:
        count, first = read_run_record(inp)
        return AtomTable(payloads).get_run(first, count)

    if version >= 3:
        atoms, dead = read_leaf_record(reader, read_live)
    else:
        atoms, dead = read_live(reader), 0
    # The owning tree is attached by load() once it exists.
    return ArrayLeaf(parent, bit, atoms, None, dead=dead)


def _write_subtree(writer: BitWriter, root: PosNode,
                   atoms: _AtomFile) -> None:
    """Heap-style level-order encoding of one subtree skeleton."""
    level: List[Tuple[int, PosNode]] = [(0, root)]
    writer.write_bit(1)  # subtree present
    while level:
        # Present positions of this level, left to right, with gamma-
        # coded gaps standing in for RLE-compressed marker runs.
        writer.write_elias_gamma(len(level) + 1)
        previous = -1
        next_level: List[Tuple[int, PosNode]] = []
        for index, node in level:
            writer.write_elias_gamma(index - previous)
            previous = index
            _write_entry(writer, node, atoms)
            if isinstance(node.left, PosNode):
                next_level.append((2 * index, node.left))
            if isinstance(node.right, PosNode):
                next_level.append((2 * index + 1, node.right))
        level = next_level


def _write_entry(writer: BitWriter, node: PosNode,
                 atoms: _AtomFile) -> None:
    _write_slot(writer, node.atom, atoms)
    minis = node.mini_nodes()
    writer.write_elias_gamma(len(minis) + 1)
    for mini in minis:
        write_disambiguator(writer, mini.dis)
        _write_slot(writer, mini.atom, atoms)
        for child in (mini.left, mini.right):
            if child is None:
                writer.write_bit(0)
            elif isinstance(child, ArrayLeaf):
                raise EncodingError(
                    "array leaf under a mini-node"
                )  # pragma: no cover - the tree never builds one
            else:
                # Escape: a mini-node's child subtree, recursively.
                _write_subtree(writer, child, atoms)
    # Plain-child presence: the next heap level cannot be peeked at read
    # time, so record which children exist. Since v2 a second bit on
    # present children distinguishes tree subtrees from array leaves
    # (serialized inline, not in the heap layout).
    for child in (node.left, node.right):
        if child is None:
            writer.write_bit(0)
            continue
        writer.write_bit(1)
        if isinstance(child, ArrayLeaf):
            writer.write_bit(1)
            _write_leaf(writer, child, atoms)
        else:
            writer.write_bit(0)


def _read_subtree(reader: BitReader, parent, bit: int,
                  payloads: List[bytes], version: int) -> Optional[PosNode]:
    if not reader.read_bit():
        return None
    root = PosNode(parent, bit)
    level: Dict[int, PosNode] = {0: root}
    while level:
        count = reader.read_elias_gamma() - 1
        position = -1
        ordered: List[Tuple[int, PosNode]] = sorted(level.items())
        if count != len(ordered):
            raise EncodingError("level population mismatch")
        next_level: Dict[int, PosNode] = {}
        for expected_index, node in ordered:
            position += reader.read_elias_gamma()
            if position != expected_index:
                raise EncodingError("heap position mismatch")
            children = _read_entry(reader, node, payloads, version)
            for child_bit in children:
                child = PosNode(node, child_bit)
                node.set_child(child_bit, child)
                next_level[2 * expected_index + child_bit] = child
        level = next_level
    return root


def _read_entry(reader: BitReader, node: PosNode,
                payloads: List[bytes], version: int) -> List[int]:
    node.atom = _read_slot(reader, payloads)
    mini_count = reader.read_elias_gamma() - 1
    for _ in range(mini_count):
        dis = read_disambiguator(reader)
        mini = node.get_or_create_mini(dis)
        mini.atom = _read_slot(reader, payloads)
        for child_bit in (0, 1):
            child = _read_subtree(reader, mini, child_bit, payloads, version)
            if child is not None:
                mini.set_child(child_bit, child)
    # Plain-child presence bits, mirroring _write_entry.
    children = []
    for child_bit in (0, 1):
        if not reader.read_bit():
            continue
        if version >= 2 and reader.read_bit():
            node.set_child(
                child_bit,
                _read_leaf(reader, node, child_bit, payloads, version),
            )
            continue
        children.append(child_bit)
    return children


def save(tree: TreedocTree) -> DiskImage:
    """Serialize a tree to its on-disk image, in the current format
    (:data:`FORMAT_VERSION`): leaves as RLE atom runs with the
    dead-slot bitmap sidecar, so tombstone-bearing leaves persist
    collapsed."""
    writer = BitWriter()
    atoms = _AtomFile()
    _write_subtree(writer, tree.root, atoms)
    return DiskImage(writer.getvalue(), writer.bit_length, atoms.payloads)


def load(image: DiskImage) -> TreedocTree:
    """Reconstruct a tree from its on-disk image.

    Array-leaf records come back as collapsed regions — a cold document
    loads without exploding anything.
    """
    reader = BitReader(image.tree_bytes, image.tree_bits)
    root = _read_subtree(reader, None, 0, image.atom_payloads, image.version)
    tree = TreedocTree()
    if root is not None:
        tree.root = root
    for leaf in tree.array_leaves():
        leaf.tree = tree
    tree.recount_subtree(tree.root)
    tree.height = subtree_height(tree.root)
    return tree


def measure_on_disk(tree: TreedocTree) -> Tuple[int, int]:
    """``(overhead_bytes, document_bytes)`` of the on-disk image."""
    image = save(tree)
    return image.tree_size_bytes, image.atom_size_bytes


# -- file container ---------------------------------------------------------------
#
# One real file holds both halves of a DiskImage ("a separate file" for
# atoms in the paper means a separate *stream*; the container keeps the
# streams length-prefixed side by side) behind the same integrity
# discipline as the wire: a trailing CRC-32 over the whole body, so a
# torn or bit-flipped image surfaces as the typed DecodeError. Writes
# are atomic (temp sibling + fsync + rename) — a crash mid-save leaves
# the previous image intact, never a half-written one.

_IMAGE_MAGIC = b"TDOC"
_IMAGE_HEADER = struct.Struct(">BII")
_U32 = struct.Struct(">I")


def image_to_bytes(image: DiskImage) -> bytes:
    """Serialize a :class:`DiskImage` to one CRC-terminated byte string."""
    parts = [
        _IMAGE_MAGIC,
        _IMAGE_HEADER.pack(image.version, image.tree_bits,
                           len(image.tree_bytes)),
        image.tree_bytes,
        _U32.pack(len(image.atom_payloads)),
    ]
    for payload in image.atom_payloads:
        parts.append(_U32.pack(len(payload)))
        parts.append(payload)
    body = b"".join(parts)
    return body + _U32.pack(zlib.crc32(body))


def image_from_bytes(data: bytes) -> DiskImage:
    """Parse a container produced by :func:`image_to_bytes`.

    Raises the typed :class:`repro.errors.DecodeError` on anything
    short, torn, or bit-flipped — CRC first, so damage anywhere in the
    file is caught before any structure is trusted.
    """
    if len(data) < len(_IMAGE_MAGIC) + _IMAGE_HEADER.size + 2 * _U32.size:
        raise DecodeError("disk image truncated")
    body, crc = data[:-_U32.size], _U32.unpack(data[-_U32.size:])[0]
    if zlib.crc32(body) != crc:
        raise DecodeError("disk image CRC mismatch")
    if not body.startswith(_IMAGE_MAGIC):
        raise DecodeError("not a Treedoc disk image")
    offset = len(_IMAGE_MAGIC)
    version, tree_bits, tree_len = _IMAGE_HEADER.unpack_from(body, offset)
    offset += _IMAGE_HEADER.size
    if offset + tree_len + _U32.size > len(body):
        raise DecodeError("disk image tree bytes truncated")
    tree_bytes = body[offset:offset + tree_len]
    if tree_bits > 8 * tree_len:
        raise DecodeError("disk image bit length exceeds tree bytes")
    offset += tree_len
    (count,) = _U32.unpack_from(body, offset)
    offset += _U32.size
    payloads: List[bytes] = []
    for _ in range(count):
        if offset + _U32.size > len(body):
            raise DecodeError("disk image atom file truncated")
        (length,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        if offset + length > len(body):
            raise DecodeError("disk image atom payload truncated")
        payloads.append(body[offset:offset + length])
        offset += length
    if offset != len(body):
        raise DecodeError("trailing garbage after disk image")
    return DiskImage(tree_bytes, tree_bits, payloads, version)


def write_image(image: DiskImage, path: Path, fsync: bool = True,
                before_replace: Optional[Callable[[], None]] = None) -> int:
    """Write ``image`` to ``path`` atomically; returns the byte size.

    ``before_replace`` is the crash-injection hook of
    :func:`repro.util.files.atomic_write_bytes` (tests use it to prove
    a crash mid-save cannot damage the previous image).
    """
    data = image_to_bytes(image)
    atomic_write_bytes(path, data, fsync=fsync,
                       before_replace=before_replace)
    return len(data)


def read_image(path: Path) -> DiskImage:
    """Read an image file back (typed DecodeError on damage)."""
    return image_from_bytes(Path(path).read_bytes())


def save_file(tree: TreedocTree, path: Path, fsync: bool = True) -> int:
    """Serialize ``tree`` straight to an image file (atomically);
    returns the file size in bytes."""
    return write_image(save(tree), path, fsync=fsync)


def load_file(path: Path) -> TreedocTree:
    """Reconstruct a tree from an image file."""
    return load(read_image(path))
