"""Write the golden byte corpus that freezes every persisted format.

    PYTHONPATH=src python tests/golden/make_golden.py [OUT_DIR [GROUP ...]]

Builds fixed, seeded scenarios and writes, under ``OUT_DIR`` (default:
this directory), the files of each named group (default: ``corpus``):

``corpus`` — written by the segment-state-frame codec (before the
tree-walk state frame existed):

- ``wire_<kind>.bin`` — one peer-protocol frame of every wire kind
  (``wire_sync_delta.bin`` is the segment-stream ``SyncDelta``, wire
  kind 7, whose writer is gone: rerunning this group leaves it alone);
- ``batch.bin`` — a core v2 batch frame (runs plus singleton records);
- ``state.bin`` — a core v2 (segment) state frame of an edited document;
- ``wal.bin`` — one WAL segment of a durable replica site;
- ``disk_v3.bin`` — a v3 disk image container with array leaves and a
  dead-slot bitmap;
- ``manifest.json`` — the bit lengths of the core frames and the
  ``(mode, site, digest)`` a state frame's header does not repeat.

``checkpoint`` — written by the same codec: ``checkpoint_store/``, a
durable SDIS site's store directory (a checkpoint whose state frame is
a segment frame, and the WAL tail after it), and
``checkpoint_store.json``, the text and identity digests the store must
recover to.

``facade_store`` — written by the last store that kept an advisory
``MANIFEST.json``: ``facade_store/``, a durable UDIS ``Replica``'s store
directory (a checkpoint taken with batches still pending, then
``OUTBOX``, ``LOCAL``, ``REMOTE`` and ``DRAIN`` records after it, and
the manifest recovery never reads), and ``facade_store.json``, the
text, identifier digest, pending-batch digests and mint counters the
store must recover to.

``state_tree`` — written by the tree-walk codec: ``state_tree_udis.bin``
and ``state_tree_sdis.bin`` (mini-nodes from two sites, leaves, and
under SDIS tombstones and a dead-slot bitmap), with their headers in
``state_tree.json``.

``sync_delta_tree`` — written by the region-frame codec:
``wire_sync_delta_tree.bin``, the ``SyncDelta`` (wire kind 9, a pruned
tree-walk frame) of the same scenario as ``wire_sync_delta.bin``.

``compact_frames`` — written by the dictionary-coded per-edit codec:
``wire_envelope_compact.bin``, the envelope (wire kind 10) of the same
event as ``wire_envelope.bin``, whose fixed-width kind-0 writer is
gone; and ``batch_compact.bin``, the compact batch frame of the
``batch.bin`` batch with a foreign-origin insert and a flatten (with a
commitment transaction) appended, its bit length in
``compact_frames.json``.

``disk_legacy`` — written by the last disk writers that still emitted
the older record formats: ``disk_v1.bin``, a v1 image of a plain tree
(mini-nodes from two sites and SDIS tombstones, no leaves), and
``disk_v2.bin``, a v2 image with array leaves and no dead-slot bitmap.
Only the readers of those formats remain, so this group runs only
against a source tree whose ``disk.save`` still takes ``version``; the
texts, leaf counts and identifier digests the images must load to are
recorded in ``test_golden_bytes.py``.

Each group is generated once by the codec whose bytes it freezes and
then checked in; ``test_golden_bytes.py`` decodes every file with the
current code and re-encodes (or recovers) it. Regenerating a group is a
format change and needs a format version bump.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.core import disk
from repro.core.disambiguator import Udis
from repro.core.encoding import encode_batch
from repro.core.ops import FlattenOp, InsertOp, OpBatch
from repro.core.path import ROOT, PathElement, PosID
from repro.core.treedoc import Treedoc
from repro.replica import Replica
from repro.replication.clock import VectorClock
from repro.replication.cluster import Cluster
from repro.replication.commit import AbortMsg, PrepareMsg, VoteMsg
from repro.replication.wire import (
    DECLINE_TRY_PEER,
    AckFrame,
    EnvelopeFrame,
    SyncDecline,
    SyncRequest,
    encode_wire,
)
from repro.server.admin import identity_digest
from repro.storage import DurableStore


def edited_cluster() -> Cluster:
    """Two UDIS sites: a flattened region (state runs), concurrent
    singletons and deletes."""
    cluster = Cluster(2, mode="udis", seed=17)
    one, two = cluster[1], cluster[2]
    one.insert_text(0, list("the quick brown fox jumps"))
    cluster.settle()
    one.initiate_flatten(ROOT)
    cluster.settle()
    two.insert(4, "very ")
    one.insert(4, "a ")
    one.delete_range(10, 13)
    two.insert_text(len(two), list(" over the lazy dog"))
    cluster.settle()
    return cluster


def wire_frames(cluster: Cluster):
    one, two = cluster[1], cluster[2]
    clock = one.broadcast.clock.copy()
    batch = one.insert_text(3, list("!!"))
    payload, bits = encode_batch(batch)
    cluster.settle()
    delta = one.make_sync_delta(clock)
    assert delta is not None and delta.state.atom_count
    posid = one.doc.posids()[5]
    return {
        "envelope": encode_wire(EnvelopeFrame(1, one.broadcast.clock.copy(),
                                              payload, bits)),
        "ack": encode_wire(AckFrame(2, two.broadcast.clock.copy())),
        "sync_request": encode_wire(SyncRequest(2, clock)),
        "sync_response": two.make_state_transfer().to_wire(),
        "sync_delta": delta.to_wire(),
        "sync_decline": encode_wire(SyncDecline(1, DECLINE_TRY_PEER, 2)),
        "prepare": encode_wire(PrepareMsg("txn-7", posid,
                                          VectorClock({1: 4, 2: 3}), 1)),
        "vote": encode_wire(VoteMsg("txn-7", 2, True)),
        "abort": encode_wire(AbortMsg("txn-7")),
    }


def wal_segment(root: Path) -> bytes:
    """A durable site's WAL: local mints and remote deliveries."""
    cluster = Cluster(1, mode="sdis", seed=23)
    store = DurableStore(root, checkpoint_every=None, fsync=False)
    durable = cluster.add_site(2, store=store)
    cluster.settle()
    cluster[1].insert_text(0, list("journaled"))
    cluster.settle()
    durable.insert(2, "X")
    durable.delete_range(4, 6)
    cluster[1].insert_text(0, list(">> "))
    cluster.settle()
    data = store.wal_path.read_bytes()
    store.close()
    return data


def disk_image() -> bytes:
    """v3 image: collapsed leaves, a dead-slot bitmap and mini-nodes."""
    doc = Treedoc(site=1, mode="sdis")
    doc.insert_text(0, [f"a{i}" for i in range(64)])
    doc.apply_flatten(doc.make_flatten(ROOT))
    for _ in range(3):
        doc.note_revision()
    doc.collapse_cold(min_age=1, min_atoms=4)
    doc.delete_range(10, 14)
    doc.delete_range(30, 31)
    for _ in range(4):
        doc.note_revision()
    doc.collapse_cold(min_age=1, min_atoms=4)
    other = Treedoc(site=2, mode="sdis")
    other.apply_batch(doc.insert_text(len(doc), list("tail")))
    first = doc.insert_text(len(doc), ["x"])
    second = other.insert_text(len(other), ["y"])
    doc.apply_batch(second)
    other.apply_batch(first)
    assert any(leaf.dead for leaf in doc.tree.array_leaves())
    image = disk.save(doc.tree)
    assert image.version == 3
    return disk.image_to_bytes(image)


def legacy_disk_images() -> dict:
    """A plain SDIS tree as a v1 image and a collapsed UDIS tree as a
    v2 image (the ``version`` argument of the writer that made them)."""
    plain = Treedoc(site=1, mode="sdis")
    other = Treedoc(site=2, mode="sdis")
    other.apply_batch(plain.insert_text(0, list("legacy plain tree")))
    first = plain.insert_text(len(plain), list(" v1"))
    second = other.insert_text(0, list("old "))
    plain.apply_batch(second)
    plain.apply_batch(plain.delete_range(0, 2))
    plain.apply_batch(first)
    assert any(node.minis for node in plain.tree.root.iter_nodes())
    assert plain.tree.id_length > len(plain) and not plain.array_leaf_count
    mixed = Treedoc(site=1, mode="udis")
    mixed.insert_text(0, [f"b{i}" for i in range(40)])
    mixed.apply_flatten(mixed.make_flatten(ROOT))
    for _ in range(3):
        mixed.note_revision()
    mixed.collapse_cold(min_age=1, min_atoms=4)
    mixed.insert_text(20, list("hot"))
    assert mixed.array_leaf_count >= 1
    return {
        "disk_v1.bin": disk.image_to_bytes(disk.save(plain.tree, version=1)),
        "disk_v2.bin": disk.image_to_bytes(disk.save(mixed.tree, version=2)),
    }


def posid_digest(site) -> str:
    """SHA-256 of every visible identifier with its disambiguators
    (``identity_digest`` hashes branch bits only)."""
    text = "\n".join(repr(posid) for posid in site.doc.posids())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def checkpoint_store(root: Path) -> dict:
    """A durable SDIS site: edits from two sites, a flatten, deletes,
    a collapse into leaves with a dead-slot bitmap, a checkpoint, then
    a WAL tail. Returns what recovery must reproduce."""
    cluster = Cluster(1, mode="sdis", seed=29)
    store = DurableStore(root, checkpoint_every=None, fsync=False)
    durable = cluster.add_site(2, store=store)
    one = cluster[1]
    one.insert_text(0, [f"c{i}" for i in range(48)])
    cluster.settle()
    one.initiate_flatten(ROOT)
    cluster.settle()
    durable.delete_range(10, 14)
    durable.delete(30)
    one.insert(3, "x")
    durable.insert(20, "y")
    cluster.settle()
    for _ in range(4):
        durable.doc.note_revision()
    durable.doc.collapse_cold(min_age=1, min_atoms=4)
    assert any(leaf.dead for leaf in durable.doc.tree.array_leaves())
    durable.checkpoint()
    one.insert_text(5, list("tail"))
    durable.delete(0)
    durable.insert(8, "z")
    cluster.settle()
    store.close()
    return {"mode": "sdis", "site": 2, "seed": 29,
            "text": durable.text(),
            "identity_digest": identity_digest(durable),
            "posid_digest": posid_digest(durable)}


def facade_store(root: Path) -> dict:
    """A durable UDIS facade replica: own inserts and deletes (so the
    mint counter is not recoverable from the document alone), a merge
    and a drain, a checkpoint with two batches still pending, then
    LOCAL, REMOTE, DRAIN and LOCAL records. Returns what recovery must
    reproduce."""
    store = DurableStore(root, checkpoint_every=None, fsync=False)
    replica = Replica(1, mode="udis", store=store)
    remote = Replica(2, mode="udis")
    replica.edit(0, 0, "hello world")
    remote.merge(replica.pending())
    remote.edit(5, 5, ",")
    replica.merge(remote.pending())
    replica.edit(0, 1)
    replica.edit(0, 0, "H")
    replica.checkpoint()
    replica.edit(len(replica), len(replica), "!")
    remote.edit(0, 0, ">> ")
    replica.merge(remote.pending())
    remote.merge(replica.pending())
    replica.edit(3, 8, "J")
    remote.edit(len(remote), len(remote), " <<")
    replica.merge(remote.pending())
    replica.edit(len(replica), len(replica), "?")
    store.close()
    return {"mode": "udis", "site": 1,
            "text": replica.text(),
            "posid_digest": posid_digest(replica),
            "pending_digests": [batch.digest
                                for batch in replica.pending(clear=False)],
            "op_seq": replica.doc.op_seq,
            "dis_counter": replica.doc.dis_counter}


def tree_state_docs():
    """One UDIS and one SDIS document for the tree-walk frames."""
    docs = {}
    for mode in ("udis", "sdis"):
        doc = Treedoc(site=1, mode=mode)
        doc.insert_text(0, [f"a{i}" for i in range(64)])
        doc.apply_flatten(doc.make_flatten(ROOT))
        doc.delete_range(10, 14)
        other = Treedoc(site=2, mode=mode)
        other.apply_batch(doc.insert_text(len(doc), list("tail")))
        doc.apply_batch(other.insert_text(3, list("xyz")))
        doc.insert_text(20, list("mid"))
        for _ in range(4):
            doc.note_revision()
        doc.collapse_cold(min_age=1, min_atoms=4)
        docs[mode] = doc
    assert any(leaf.dead for leaf in docs["sdis"].tree.array_leaves())
    return docs


def write_corpus(out: Path) -> None:
    cluster = edited_cluster()
    state = cluster[2].make_state_transfer().state
    batch = cluster[1].replace_range(4, 9, list("brisk "))
    cluster.settle()
    batch_bytes, batch_bits = encode_batch(batch)
    files = {f"wire_{kind}.bin": data
             for kind, data in wire_frames(cluster).items()
             if kind != "sync_delta"}
    files["batch.bin"] = batch_bytes
    files["state.bin"] = state.frame
    workdir = Path(tempfile.mkdtemp())
    try:
        files["wal.bin"] = wal_segment(workdir / "store")
    finally:
        shutil.rmtree(workdir)
    files["disk_v3.bin"] = disk_image()
    for name, data in files.items():
        (out / name).write_bytes(data)
    write_json(out / "manifest.json", {
        "batch": {"bits": batch_bits},
        "state": {"bits": state.frame_bits, "mode": state.mode,
                  "site": state.site, "digest": state.digest},
    })


def write_checkpoint(out: Path) -> None:
    root = out / "checkpoint_store"
    if root.exists():
        shutil.rmtree(root)
    write_json(out / "checkpoint_store.json", checkpoint_store(root))


def write_facade(out: Path) -> None:
    root = out / "facade_store"
    if root.exists():
        shutil.rmtree(root)
    write_json(out / "facade_store.json", facade_store(root))


def write_state_tree(out: Path) -> None:
    headers = {}
    for mode, doc in tree_state_docs().items():
        state = doc.capture_state()
        (out / f"state_tree_{mode}.bin").write_bytes(state.frame)
        headers[mode] = {"bits": state.frame_bits, "site": state.site,
                         "digest": state.digest, "atoms": len(doc)}
    write_json(out / "state_tree.json", headers)


def write_sync_delta_tree(out: Path) -> None:
    delta = wire_frames(edited_cluster())["sync_delta"]
    (out / "wire_sync_delta_tree.bin").write_bytes(delta)


def compact_batch(batch: OpBatch) -> OpBatch:
    """``batch`` with a foreign-origin insert and a flatten appended, so
    the frame holds every record kind and a second dictionary site."""
    last = batch.ops[-1].posid
    extra = (InsertOp(PosID(last.elements + (PathElement(1, Udis(3, 2)),)),
                      "+", 2),
             FlattenOp(PosID(last.elements[:2]), "digest", 1, txn="txn-9"))
    return OpBatch(batch.ops + extra, batch.origin, batch.seq_start,
                   batch.seq_end + len(extra))


def write_compact_frames(out: Path) -> None:
    # The corpus group's sequence of events, so both goldens carry the
    # events its files do.
    cluster = edited_cluster()
    batch = compact_batch(cluster[1].replace_range(4, 9, list("brisk ")))
    cluster.settle()
    envelope = wire_frames(cluster)["envelope"]
    data, bits = encode_batch(batch)
    (out / "wire_envelope_compact.bin").write_bytes(envelope)
    (out / "batch_compact.bin").write_bytes(data)
    write_json(out / "compact_frames.json", {"batch": {"bits": bits}})


def write_disk_legacy(out: Path) -> None:
    for name, data in legacy_disk_images().items():
        (out / name).write_bytes(data)


def write_json(path: Path, value: dict) -> None:
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")


GROUPS = {"corpus": write_corpus, "checkpoint": write_checkpoint,
          "facade_store": write_facade,
          "state_tree": write_state_tree,
          "sync_delta_tree": write_sync_delta_tree,
          "compact_frames": write_compact_frames,
          "disk_legacy": write_disk_legacy}


def main(out: Path, groups) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for group in groups:
        GROUPS[group](out)


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent,
         sys.argv[2:] or ["corpus"])
