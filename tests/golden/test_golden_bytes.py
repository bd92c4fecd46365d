"""Byte identity of every persisted and transmitted format.

The files beside this module were written by ``make_golden.py`` and are
checked in. Each test decodes one of them with the current code and
re-encodes the result: the bytes must come back identical, so a codec
change that moves a single wire, WAL, state-frame or disk bit fails
here rather than in a mixed-version cluster.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import disk
from repro.core.encoding import (
    DocumentState,
    decode_batch,
    decode_state,
    encode_batch,
    encode_state,
)
from repro.replication.wire import (
    WIRE_KIND_NAMES,
    EnvelopeFrame,
    SyncResponse,
    decode_wire,
    encode_wire,
    peek_wire_kind,
)
from repro.storage.wal import RECORD_ENVELOPE, RECORD_META, pack_record, scan_records

GOLDEN = Path(__file__).parent
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def reencode_state(state: DocumentState) -> DocumentState:
    site, mode, segments = decode_state(state)
    return encode_state(segments, mode, site, state.digest)


@pytest.mark.parametrize("kind", sorted(WIRE_KIND_NAMES.values()))
def test_wire_frame_reencodes_identically(kind):
    data = golden(f"wire_{kind}.bin")
    assert peek_wire_kind(data) == kind
    frame = decode_wire(data)
    assert encode_wire(frame) == data


def test_envelope_payload_reencodes_identically():
    frame = decode_wire(golden("wire_envelope.bin"))
    assert isinstance(frame, EnvelopeFrame)
    assert encode_batch(frame.decode_payload()) == (
        frame.payload, frame.payload_bits
    )


def test_sync_response_state_reencodes_identically():
    frame = decode_wire(golden("wire_sync_response.bin"))
    assert isinstance(frame, SyncResponse)
    again = reencode_state(frame.state)
    assert (again.frame, again.frame_bits) == (
        frame.state.frame, frame.state.frame_bits
    )


def test_batch_frame_reencodes_identically():
    data, bits = golden("batch.bin"), MANIFEST["batch"]["bits"]
    assert encode_batch(decode_batch(data, bits)) == (data, bits)


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
        else:
            assert encode_wire(decode_wire(record.payload)) == record.payload


def test_disk_v3_image_reencodes_identically():
    data = golden("disk_v3.bin")
    image = disk.image_from_bytes(data)
    assert image.version == 3
    tree = disk.load(image)
    assert any(leaf.dead for leaf in tree.array_leaves())
    assert disk.image_to_bytes(disk.save(tree)) == data
