"""The tree-walk state frame: the whole document shipped as its tree.

A differential oracle pins it to the segment frame it replaces for full
transfers: after any edit history — local and remote bursts, deletes,
flatten, collapse (bitmap leaves under SDIS), whole and partial
explodes, tombstone purge — loading either frame of the same document
gives the same text and identifiers and the same fully-live leaves, and
the tree-walk load keeps the sender's dead-slot bitmaps (which the
segment frame cannot carry). Every step of those histories, every
load and a disk reload of the result also keep the lean node layout
(``check_layout``, including "no PosID stored in the tree") and derive
every identifier back to its own slot (``check_identifiers``), and
each minted batch carries the per-slot identifiers. Hostile-input cases
pin the decoder to typed errors.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import runs
from repro.core.disambiguator import Sdis
from repro.core.encoding import (
    decode_state,
    encode_state,
    encode_state_segments,
)
from repro.core.node import TOMBSTONE, ArrayLeaf, iter_subtree_entries
from repro.core.path import ROOT
from repro.core.runs import iter_state_segments
from repro.core.treedoc import Treedoc
from repro.errors import DecodeError, EncodingError, SyncError
from repro.util.bits import BitWriter

from tests.core.test_node_layout import (
    check_identifiers,
    check_layout,
    disk_reload,
)


def leaf_shapes(doc: Treedoc, dead: bool):
    """``(base path, atoms, dead bitmap)`` of the live (``dead=False``)
    or dead-slot-bearing leaves, in document order."""
    return [(repr(leaf.base_elements()), list(leaf.atoms), leaf.dead)
            for leaf in doc.tree.array_leaves() if bool(leaf.dead) == dead]


def identity(doc: Treedoc):
    return [repr(posid) for posid in doc.posids()]


def segment_state(doc: Treedoc):
    """The same document as a segment state frame."""
    state = doc.capture_state()
    return encode_state_segments(iter_state_segments(doc.tree, doc.site),
                                 doc.mode, doc.site, state.digest)


def loaded(doc: Treedoc, state, check: bool = True) -> Treedoc:
    other = Treedoc(site=9, mode=doc.mode)
    assert other.load_state(state) == len(doc)
    if check:
        other.check()
    return other


def assert_frames_agree(doc: Treedoc) -> Treedoc:
    state = doc.capture_state()
    tree_load = loaded(doc, state)
    seg_load = loaded(doc, segment_state(doc))
    check_layout(tree_load.tree)
    check_layout(seg_load.tree)
    assert tree_load.atoms() == seg_load.atoms() == doc.atoms()
    assert identity(tree_load) == identity(seg_load) == identity(doc)
    assert leaf_shapes(tree_load, dead=False) == leaf_shapes(
        seg_load, dead=False)
    # Bitmaps travel only in the tree-walk frame: the receiver keeps
    # exactly the sender's dead-slot leaves.
    assert leaf_shapes(tree_load, dead=True) == leaf_shapes(doc, dead=True)
    assert leaf_shapes(seg_load, dead=True) == []
    assert tree_load.array_leaf_count == (
        seg_load.array_leaf_count + len(leaf_shapes(doc, dead=True)))
    # Decode -> re-encode is byte-identical.
    again = encode_state(tree_load.tree, state.mode, state.site,
                         state.digest)
    assert (again.frame, again.frame_bits) == (state.frame, state.frame_bits)
    return tree_load


def minted(doc: Treedoc, index: int, atoms):
    """``doc.insert_text``, checking that the batch's op PosIDs are the
    per-slot derivations of the slots it filled."""
    batch = doc.insert_text(index, atoms)
    assert [op.posid for op in batch.ops] == [
        doc.posid_at(at) for at in range(index, index + len(atoms))]
    return batch


def deleted(doc: Treedoc, start: int, end: int):
    """``doc.delete_range``, checking that the batch's op PosIDs are the
    identifiers the range read as before the delete."""
    before = [doc.posid_at(at) for at in range(start, end)]
    batch = doc.delete_range(start, end)
    assert [op.posid for op in batch.ops] == before
    return batch


def cool(doc: Treedoc, min_atoms: int) -> None:
    """Let the document go cold, then collapse it (bitmap leaves where
    SDIS tombstones sit in canonical regions)."""
    for _ in range(4):
        doc.note_revision()
    doc.collapse_cold(min_age=1, min_atoms=min_atoms)


_step = st.tuples(
    st.sampled_from(
        ["local_insert", "local_delete", "remote_batch", "flatten",
         "collapse", "leaf_explode", "interior_edit", "purge"]
    ),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
)


class TestDifferentialAgainstSegmentFrame:
    @pytest.mark.parametrize("mode", ["udis", "sdis"])
    @given(steps=st.lists(_step, min_size=1, max_size=25),
           cool_last=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_both_frames_load_the_same_document(self, mode, steps,
                                                cool_last):
        doc = Treedoc(site=1, mode=mode)
        peer = Treedoc(site=3, mode=mode)
        # A large collapsed base, so interior edits explode a leaf past
        # the partial-explode threshold.
        peer.apply_batch(doc.insert_text(0, [f"b{i}" for i in range(600)]))
        op = doc.make_flatten(ROOT)
        doc.apply_flatten(op)
        peer.apply_flatten(op)
        cool(doc, min_atoms=8)
        tag = 0
        for kind, position, payload in steps:
            if kind == "local_insert":
                atoms = [f"a{tag}.{k}" for k in range(payload)]
                tag += 1
                peer.apply_batch(
                    minted(doc, position % (len(doc) + 1), atoms))
            elif kind == "local_delete" and len(doc):
                start = position % len(doc)
                peer.apply_batch(
                    deleted(doc, start, min(len(doc), start + payload)))
            elif kind == "remote_batch":
                atoms = [f"p{tag}.{k}" for k in range(payload)]
                tag += 1
                doc.apply_batch(
                    minted(peer, position % (len(peer) + 1), atoms))
            elif kind == "flatten":
                op = doc.make_flatten(ROOT)
                doc.apply_flatten(op)
                peer.apply_flatten(op)
            elif kind == "collapse":
                cool(doc, min_atoms=payload + 1)
            elif kind == "leaf_explode":
                leaves = doc.tree.array_leaves()
                if leaves:
                    leaves[position % len(leaves)].explode()
            elif kind == "interior_edit" and len(doc):
                # Lands inside a leaf when one covers the position.
                peer.apply_batch(
                    minted(doc, position % len(doc), [f"i{tag}"]))
                tag += 1
            elif kind == "purge":
                tombstones = [
                    entry for entry in iter_subtree_entries(doc.tree.root)
                    if not isinstance(entry, ArrayLeaf)
                    and entry.state == TOMBSTONE
                ]
                if tombstones:
                    doc.tree.purge_tombstone(
                        tombstones[position % len(tombstones)])
            # The peer stays one exploded 600-atom tree: its identifiers
            # are checked once, after the history.
            check_identifiers(doc.tree)
            if len(doc):
                doc.posid_at(position % len(doc))
            check_layout(doc.tree)
            check_layout(peer.tree)
        check_identifiers(peer.tree)
        check_layout(peer.tree)
        if cool_last:
            cool(doc, min_atoms=2)
            check_layout(doc.tree)
        receiver = assert_frames_agree(doc)
        reloaded = disk_reload(doc.tree)
        assert reloaded.atoms() == doc.atoms()
        check_layout(reloaded)
        # The loaded replica keeps converging with the source.
        batch = doc.insert_text(len(doc) // 2, ["after"])
        receiver.apply_batch(batch)
        assert identity(receiver) == identity(doc)
        assert receiver.atoms() == doc.atoms()


def bitmap_doc() -> Treedoc:
    """An SDIS document with bitmap leaves, mini-nodes from two sites
    and tree-form tombstones."""
    doc = Treedoc(site=1, mode="sdis")
    doc.insert_text(0, [f"a{i}" for i in range(64)])
    doc.apply_flatten(doc.make_flatten(ROOT))
    doc.delete_range(10, 14)
    doc.delete_range(30, 31)
    other = Treedoc(site=2, mode="sdis")
    other.apply_batch(doc.insert_text(len(doc), list("tail")))
    doc.apply_batch(other.insert_text(3, ["x"]))
    doc.insert_text(5, ["y"])
    for _ in range(3):
        doc.note_revision()
    doc.collapse_cold(min_age=1, min_atoms=4)
    assert leaf_shapes(doc, dead=True)
    assert any(node.minis for node in doc.tree.root.iter_nodes())
    return doc


class TestShapes:
    def test_bitmap_leaves_stay_leaves(self):
        receiver = assert_frames_agree(bitmap_doc())
        assert leaf_shapes(receiver, dead=True)

    def test_partial_explode_leaves_sub_leaves(self):
        doc = Treedoc(site=1, mode="udis")
        doc.insert_text(0, [f"a{i}" for i in range(600)])
        doc.apply_flatten(doc.make_flatten(ROOT))
        doc.note_revision()
        doc.collapse_cold(min_age=1, min_atoms=8)
        doc.insert_text(300, ["mid"])
        assert doc.tree.partial_explodes == 1
        receiver = assert_frames_agree(doc)
        # Canonical subtrees the partial explode left in tree form
        # arrive collapsed, as the segment frame delivered them.
        assert receiver.array_leaf_count > doc.array_leaf_count

    def test_frame_is_smaller_than_segment_frame_on_an_edited_doc(self):
        doc = bitmap_doc()
        assert doc.capture_state().frame_bits < segment_state(doc).frame_bits

    def test_counts_name_leaves_and_slots(self):
        doc = bitmap_doc()
        state = doc.capture_state()
        assert state.atom_count == len(doc)
        assert state.run_segments == doc.array_leaf_count
        assert state.op_segments > 0

    def test_deep_path_past_the_recursion_limit(self):
        doc = Treedoc(site=1, mode="sdis", balanced=False)
        for index in range(3000):
            doc.insert(index, f"d{index}")
        doc.delete_range(1000, 1010)
        assert doc.tree.height > sys.getrecursionlimit()
        state = doc.capture_state()
        receiver = loaded(doc, state, check=False)  # check() is quadratic
        assert receiver.atoms() == doc.atoms()
        assert receiver.tree.height == doc.tree.height
        # Identical trees re-encode to identical bytes (the full
        # identifier comparison is quadratic on a path this deep).
        again = encode_state(receiver.tree, "sdis", state.site, state.digest)
        assert again.frame == state.frame
        for index in (0, 1500, len(doc) - 1):
            assert receiver.posid_at(index) == doc.posid_at(index)
        # Every identifier derives by iteration, with no recursion: the
        # listing shares prefixes through its call-long memo and matches
        # the per-slot walk (compared by depth, and in full at a few
        # indices; a full comparison is quadratic too).
        listings = [replica.posids() for replica in (doc, receiver)]
        assert ([posid.depth for posid in listings[0]]
                == [posid.depth for posid in listings[1]])
        for index in (0, 999, 1000, len(doc) - 1):
            assert listings[0][index] == listings[1][index] == doc.posid_at(
                index)

    def test_capture_ships_no_segment_records(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("capture_state harvested segments")

        monkeypatch.setattr(runs, "iter_state_segments", refuse)
        doc = bitmap_doc()
        assert loaded(doc, doc.capture_state()).atoms() == doc.atoms()

    def test_empty_document_round_trips(self):
        for mode in ("udis", "sdis"):
            doc = Treedoc(site=1, mode=mode)
            assert loaded(doc, doc.capture_state()).atoms() == []

    def test_mixed_disambiguator_kinds_are_refused(self):
        doc = Treedoc(site=1, mode="udis")
        doc.insert_text(0, list("abc"))
        mini = next(mini for node in doc.tree.root.iter_nodes()
                    for mini in node.mini_nodes())
        mini.dis = Sdis(1)
        with pytest.raises(EncodingError, match="Sdis disambiguator in a Udis"):
            encode_state(doc.tree, "udis", 1, "")


class TestHostileInput:
    TYPED = (EncodingError, DecodeError, SyncError)

    def _small_state(self):
        doc = bitmap_doc()
        return doc, doc.capture_state()

    def _try(self, state):
        doc = Treedoc(site=5, mode="sdis")
        try:
            doc.load_state(state)
        except self.TYPED:
            return False
        return True

    def test_truncation_at_every_byte_is_typed(self):
        _, state = self._small_state()
        for cut in range(len(state.frame)):
            frame = state.frame[:cut]
            assert not self._try(replace(state, frame=frame,
                                         frame_bits=8 * cut))
            assert not self._try(replace(state, frame=frame))

    def test_every_single_bit_flip_is_typed(self):
        doc, state = self._small_state()
        for bit in range(state.frame_bits):
            data = bytearray(state.frame)
            data[bit >> 3] ^= 0x80 >> (bit & 7)
            # A flip either fails typed or, if it decodes at all, is
            # caught by the content digest unless it is harmless.
            if self._try(replace(state, frame=bytes(data))):
                _, _, tree = decode_state(replace(state, frame=bytes(data)))
                assert tree.atoms() == doc.atoms()

    def _frame(self, body):
        writer = BitWriter()
        writer.write_bits(3, 2)      # frame escape
        writer.write_bits(3, 2)      # tree-walk kind
        writer.write_bits(1, 48)     # site
        writer.write_bit(1)          # sdis
        body(writer)
        return replace(Treedoc(1, "sdis").capture_state(),
                       frame=writer.getvalue(), frame_bits=writer.bit_length)

    def _assert_rejected(self, state, what):
        with pytest.raises(DecodeError, match=what):
            decode_state(state)

    def test_huge_site_count_is_rejected_before_allocation(self):
        def body(writer):
            writer.write_elias_gamma(1 << 60)
        self._assert_rejected(self._frame(body), "exceeds")

    def test_huge_mini_count_is_rejected_before_allocation(self):
        def body(writer):
            writer.write_elias_gamma(1)      # no sites
            writer.write_bits(0, 2)          # root slot: empty
            writer.write_elias_gamma(1 << 50)
        self._assert_rejected(self._frame(body), "exceeds")

    def test_huge_leaf_count_is_rejected_before_allocation(self):
        def body(writer):
            writer.write_elias_gamma(1)
            writer.write_bits(0, 2)          # root slot: empty
            writer.write_elias_gamma(1)      # no minis
            writer.write_bits(0b11, 2)       # left child: a leaf
            writer.write_bit(0)              # no bitmap
            writer.write_elias_gamma(1 << 50)
        self._assert_rejected(self._frame(body), "exceeds")

    def test_huge_dead_offset_is_rejected_before_allocation(self):
        def body(writer):
            writer.write_elias_gamma(1)
            writer.write_bits(0, 2)
            writer.write_elias_gamma(1)
            writer.write_bits(0b11, 2)
            writer.write_bit(1)              # bitmap follows
            writer.write_elias_gamma(1)      # one dead slot ...
            writer.write_elias_gamma(1 << 62)  # ... far past the leaf
            writer.write_elias_gamma(1)      # one live atom
            writer.write_bit(1)
            writer.write_elias_gamma(2)
            writer.write_bytes(b"a")
            writer.write_bit(0)              # no right child
        self._assert_rejected(self._frame(body), "out of bounds")
