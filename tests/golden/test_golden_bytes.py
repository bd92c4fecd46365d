"""Byte identity of every persisted and transmitted format.

The files beside this module were written by ``make_golden.py`` and are
checked in. Each test decodes one of them with the current code and
re-encodes the result: the bytes must come back identical, so a codec
change that moves a single wire, WAL, state-frame or disk bit fails
here rather than in a mixed-version cluster. Stores and state frames
written by an older codec must also still *load*: the checkpoint store
recovers to its recorded text and identifiers, the segment state
frames load into a replica, the facade store recovers its text,
identifiers, pending outbox and mint counters, and the v1/v2 disk images (whose writers
are gone) load to their recorded text and identifiers.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.core import disk
from repro.core.encoding import (
    DocumentState,
    decode_batch,
    decode_state,
    decode_state_segments,
    encode_batch,
    encode_state,
    encode_state_segments,
)
from repro.core.treedoc import Treedoc
from repro.replica import Replica
from repro.replication.cluster import Cluster
from repro.replication.wire import (
    WIRE_KIND_NAMES,
    EnvelopeFrame,
    SyncDelta,
    SyncResponse,
    decode_wire,
    encode_wire,
    peek_wire_kind,
)
from repro.server.admin import identity_digest
from repro.storage import DurableStore
from repro.storage.wal import RECORD_ENVELOPE, RECORD_META, pack_record, scan_records

GOLDEN = Path(__file__).parent
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
COMPACT = json.loads((GOLDEN / "compact_frames.json").read_text())


def golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def reencode_state(state: DocumentState) -> DocumentState:
    site, mode, segments = decode_state_segments(state)
    return encode_state_segments(segments, mode, site, state.digest)


#: The frame each wire kind name is written as today. ``sync_delta``
#: names two wire kinds: the region frame (kind 9, this file) and the
#: read-only segment stream of ``wire_sync_delta.bin`` (kind 7, checked
#: by content in :func:`test_segment_sync_delta_still_decodes`).
#: ``envelope`` names the dictionary-coded kind 10 (this file) and the
#: read-only fixed-width kind 0 of ``wire_envelope.bin`` (checked by
#: content in :func:`test_fixed_width_envelope_still_decodes`).
WRITTEN_WIRE = {kind: f"wire_{kind}.bin"
                for kind in set(WIRE_KIND_NAMES.values())}
WRITTEN_WIRE["sync_delta"] = "wire_sync_delta_tree.bin"
WRITTEN_WIRE["envelope"] = "wire_envelope_compact.bin"


@pytest.mark.parametrize("kind", sorted(WRITTEN_WIRE))
def test_wire_frame_reencodes_identically(kind):
    data = golden(WRITTEN_WIRE[kind])
    assert peek_wire_kind(data) == kind
    frame = decode_wire(data)
    assert encode_wire(frame) == data


def _text_and_posid_digest(state: DocumentState):
    _, _, tree = decode_state(state)
    posids = "\n".join(repr(posid) for posid in tree.posids())
    return ("".join(tree.atoms()),
            hashlib.sha256(posids.encode("utf-8")).hexdigest())


def test_segment_sync_delta_still_decodes():
    # Wire kind 7 has no writer left, so its bytes cannot re-encode:
    # the frame must decode to what the last codec that wrote it
    # decoded it to (clocks, delete log, and the carried atoms with
    # their identifiers), as the region state every delta merges from.
    data = golden("wire_sync_delta.bin")
    assert peek_wire_kind(data) == "sync_delta"
    frame = decode_wire(data)
    assert isinstance(frame, SyncDelta)
    assert dict(frame.clock.items()) == {1: 6, 2: 2}
    assert dict(frame.base.items()) == {1: 5, 2: 2}
    assert len(frame.delete_log) == 0
    assert frame.state.mode == "udis"
    assert _text_and_posid_digest(frame.state) == (
        "he!! c ",
        "fd4bfb9f7c47a98e46571c3fcade25e63e6e38fdf05ea21d96e3a00500f121c1",
    )
    # Re-encoding writes wire kind 9 around the same state.
    data_again = encode_wire(frame)
    assert data_again != data
    assert decode_wire(data_again) == frame


def test_envelope_payload_reencodes_identically():
    frame = decode_wire(golden("wire_envelope_compact.bin"))
    assert isinstance(frame, EnvelopeFrame)
    assert encode_batch(frame.decode_payload()) == (
        frame.payload, frame.payload_bits
    )


def _batch_facts(batch):
    return (batch.origin, batch.seq_start, batch.seq_end, batch.ops)


def test_fixed_width_envelope_still_decodes():
    # Wire kind 0 and its v2 batch payload have no writer left: the
    # frame must decode to the event the dictionary-coded golden of the
    # same event carries.
    data = golden("wire_envelope.bin")
    assert data[0] & 0x0F == 0 and peek_wire_kind(data) == "envelope"
    frame = decode_wire(data)
    compact = decode_wire(golden("wire_envelope_compact.bin"))
    assert (frame.origin, frame.clock) == (compact.origin, compact.clock)
    assert dict(frame.clock.items()) == {1: 6, 2: 2}
    event = frame.decode_payload()
    assert _batch_facts(event) == _batch_facts(compact.decode_payload())
    assert event.digest == compact.decode_payload().digest
    # Re-encoding writes kind 10 around the same (v2) payload bytes.
    again = encode_wire(frame)
    assert again[0] & 0x0F == 10 and len(again) < len(data)
    assert decode_wire(again) == frame


def test_sync_response_state_reencodes_identically():
    frame = decode_wire(golden("wire_sync_response.bin"))
    assert isinstance(frame, SyncResponse)
    again = reencode_state(frame.state)
    assert (again.frame, again.frame_bits) == (
        frame.state.frame, frame.state.frame_bits
    )


def test_batch_frame_reencodes_identically():
    data, bits = golden("batch_compact.bin"), COMPACT["batch"]["bits"]
    assert encode_batch(decode_batch(data, bits)) == (data, bits)


def test_v2_batch_frame_still_decodes():
    # The v2 batch frame has no writer left: it decodes to the batch the
    # compact golden starts with (that one appends two records).
    old = decode_batch(golden("batch.bin"), MANIFEST["batch"]["bits"])
    new = decode_batch(golden("batch_compact.bin"), COMPACT["batch"]["bits"])
    assert (old.origin, old.seq_start) == (new.origin, new.seq_start)
    assert old.ops == new.ops[:len(old.ops)]
    assert len(new.ops) == len(old.ops) + 2
    assert new.seq_end == old.seq_end + 2
    assert {op.origin for op in new.ops} == {1, 2}
    assert new.ops[-1].txn == "txn-9"


def test_state_frame_reencodes_identically():
    meta = MANIFEST["state"]
    data = golden("state.bin")
    state = DocumentState(meta["site"], meta["mode"], data, meta["bits"],
                          meta["digest"], 0, 0, 0)
    again = reencode_state(state)
    assert (again.frame, again.frame_bits) == (data, meta["bits"])
    assert again.run_segments > 0 and again.op_segments > 0


def test_wal_segment_reencodes_identically():
    data = golden("wal.bin")
    records, good_end = scan_records(data)
    assert good_end == len(data)
    assert b"".join(pack_record(r.kind, r.payload) for r in records) == data
    kinds = [record.kind for record in records]
    assert kinds[0] == RECORD_META and RECORD_ENVELOPE in kinds
    for record in records:
        if record.kind == RECORD_META:
            json.loads(record.payload)
            continue
        # Fixed-width (kind 0) envelopes, whose writer is gone: each
        # decodes, and re-encodes as kind 10 around the same origin,
        # clock and payload bytes.
        frame = decode_wire(record.payload)
        frame.decode_payload()
        assert decode_wire(encode_wire(frame)) == frame


def test_wal_segment_recovers(tmp_path):
    # A durable SDIS site recovers from the golden WAL (fixed-width
    # envelopes only) to the text and identifiers the codec that wrote
    # it recovered.
    root = tmp_path / "store"
    root.mkdir()
    shutil.copy(GOLDEN / "wal.bin", root / "wal-00000000.log")
    cluster = Cluster(1, mode="sdis", seed=23)
    site = cluster.add_site(
        2, store=DurableStore(root, checkpoint_every=None, fsync=False))
    assert site.text() == ">> joXualed"
    assert dict(site.broadcast.clock.items()) == {1: 2, 2: 2}
    posids = "\n".join(repr(posid) for posid in site.doc.posids())
    assert hashlib.sha256(posids.encode("utf-8")).hexdigest() == (
        "204951764abc07e1a02f5f0ce58d74ebdaff48825f119db8a13964bcbe309bde")


def test_disk_v3_image_reencodes_identically():
    data = golden("disk_v3.bin")
    image = disk.image_from_bytes(data)
    assert image.version == 3
    tree = disk.load(image)
    assert any(leaf.dead for leaf in tree.array_leaves())
    assert disk.image_to_bytes(disk.save(tree)) == data


#: What the legacy disk images (``disk_legacy`` group) load to: text,
#: collapsed leaves, and the SHA-256 of every visible identifier's repr.
LEGACY_DISK = {
    "disk_v1.bin": (1, "d legacy plain tree v1", 0,
                    "071b4a23102146d7ad761b743599b9229b60365c3fa9365899550621ab25f5ad"),
    "disk_v2.bin": (2, "".join(f"b{i}" for i in range(20)) + "hot"
                    + "".join(f"b{i}" for i in range(20, 40)), 1,
                    "5465a7e39355951c0d253c7be4ebb770b3ed94772dcb7da69dc3c34351a5d64b"),
}


@pytest.mark.parametrize("name", sorted(LEGACY_DISK))
def test_legacy_disk_image_loads(name):
    version, text, leaves, digest = LEGACY_DISK[name]
    image = disk.image_from_bytes(golden(name))
    assert image.version == version
    tree = disk.load(image)
    assert "".join(tree.atoms()) == text
    posids = "\n".join(repr(posid) for posid in tree.posids())
    assert hashlib.sha256(posids.encode("utf-8")).hexdigest() == digest
    # v2 leaves load collapsed, stay collapsed through the reads, and
    # carry no bitmap.
    assert len(tree.array_leaves()) == leaves
    assert tree.explodes == tree.partial_explodes == 0
    assert not any(leaf.dead for leaf in tree.array_leaves())
    tree.check_invariants()
    # Saving writes the current format, which loads back identically.
    again = disk.load(disk.save(tree))
    assert again.atoms() == tree.atoms()
    assert again.posids() == tree.posids()


def test_segment_state_frames_still_load():
    meta = MANIFEST["state"]
    state = DocumentState(meta["site"], meta["mode"], golden("state.bin"),
                          meta["bits"], meta["digest"], 0, 0, 0)
    response = decode_wire(golden("wire_sync_response.bin"))
    for frame in (state, response.state):
        doc = Treedoc(site=9, mode=frame.mode)
        assert doc.load_state(frame) == len(doc) > 0


def test_checkpoint_store_recovers(tmp_path):
    expected = json.loads((GOLDEN / "checkpoint_store.json").read_text())
    root = tmp_path / "store"
    shutil.copytree(GOLDEN / "checkpoint_store", root)
    store = DurableStore(root, checkpoint_every=None, fsync=False)
    recovered = store.recover()
    response = decode_wire(recovered.checkpoint)
    # Written before the tree-walk frame: the checkpoint carries a
    # segment state frame.
    decode_state_segments(response.state)
    store.close()
    cluster = Cluster(1, mode=expected["mode"], seed=expected["seed"])
    site = cluster.add_site(
        expected["site"],
        store=DurableStore(root, checkpoint_every=None, fsync=False))
    assert site.text() == expected["text"]
    assert identity_digest(site) == expected["identity_digest"]
    posids = "\n".join(repr(posid) for posid in site.doc.posids())
    assert (hashlib.sha256(posids.encode("utf-8")).hexdigest()
            == expected["posid_digest"])


def test_facade_store_recovers(tmp_path):
    expected = json.loads((GOLDEN / "facade_store.json").read_text())
    root = tmp_path / "store"
    shutil.copytree(GOLDEN / "facade_store", root)
    # Written by a store that kept an advisory manifest; recovery
    # ignores it.
    assert (root / "MANIFEST.json").exists()
    replica = Replica(
        expected["site"], mode=expected["mode"],
        store=DurableStore(root, checkpoint_every=None, fsync=False))
    assert replica.text() == expected["text"]
    posids = "\n".join(repr(posid) for posid in replica.doc.posids())
    assert (hashlib.sha256(posids.encode("utf-8")).hexdigest()
            == expected["posid_digest"])
    assert ([batch.digest for batch in replica.pending(clear=False)]
            == expected["pending_digests"])
    assert replica.doc.op_seq == expected["op_seq"]
    assert replica.doc.dis_counter == expected["dis_counter"]


@pytest.mark.parametrize("mode", ["udis", "sdis"])
def test_tree_state_frame_reencodes_identically(mode):
    meta = json.loads((GOLDEN / "state_tree.json").read_text())[mode]
    data = golden(f"state_tree_{mode}.bin")
    state = DocumentState(meta["site"], mode, data, meta["bits"],
                          meta["digest"], 0, 0, 0)
    site, _, tree = decode_state(state)
    again = encode_state(tree, mode, site, state.digest)
    assert (again.frame, again.frame_bits) == (data, meta["bits"])
    doc = Treedoc(site=9, mode=mode)
    assert doc.load_state(state) == meta["atoms"]
    assert doc.array_leaf_count > 0
    if mode == "sdis":
        assert any(leaf.dead for leaf in doc.tree.array_leaves())
