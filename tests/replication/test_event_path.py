"""One outbound event shape: every envelope and journal record a live
writer produces carries a compact batch frame, whose seq range is the
one the edit claimed; bare v1 operations stay readable."""

import pytest

from repro.core.encoding import decode_frame, encode_operation
from repro.core.ops import DeleteOp, FlattenOp, InsertOp, OpBatch
from repro.core.path import ROOT
from repro.core.treedoc import Treedoc
from repro.editor.session import SharedDocument
from repro.replica import Replica
from repro.replication.cluster import Cluster
from repro.replication.commit import CommitDecision
from repro.replication.wire import EnvelopeFrame, decode_wire, encode_wire
from repro.storage.store import DurableStore
from repro.storage.wal import (RECORD_ENVELOPE, RECORD_REMOTE,
                               read_segment)


def _store(root):
    return DurableStore(root, checkpoint_every=None, fsync=False)


def _capture(network, monkeypatch):
    """Record every payload ``network.broadcast`` puts on the wire."""
    sent = []
    broadcast = network.broadcast

    def capture(src, payload):
        sent.append((src, payload))
        broadcast(src, payload)

    monkeypatch.setattr(network, "broadcast", capture)
    return sent


def _envelope_batches(payloads):
    """Each envelope's decoded payload; fails on any bare operation."""
    events = []
    for payload in payloads:
        frame = decode_wire(payload)
        if isinstance(frame, EnvelopeFrame):
            event = frame.decode_payload()
            assert isinstance(event, OpBatch), event
            events.append(event)
    return events


def _ranges(batches):
    return [(batch.seq_start, batch.seq_end) for batch in batches]


def test_site_verbs_and_flatten_ship_batches(tmp_path, monkeypatch):
    cluster = Cluster(1, seed=5)
    writer = cluster.add_site(2, store=_store(tmp_path / "w"))
    sent = _capture(cluster.network, monkeypatch)
    claimed = []

    def edit(verb, *args):
        before = writer.doc.op_seq
        getattr(writer, verb)(*args)
        claimed.append((before, writer.doc.op_seq))

    edit("insert_text", 0, list("abcdef"))
    edit("insert", 1, "x")
    edit("delete", 2)
    edit("delete_range", 0, 2)
    edit("replace_range", 1, 3, list("yz"))
    cluster.settle()
    coordinator = writer.initiate_flatten(ROOT)
    cluster.settle()
    assert coordinator.decision is CommitDecision.COMMITTED
    claimed.append((writer.doc.op_seq, writer.doc.op_seq))
    edit("insert", 0, "w")
    cluster.settle()
    assert claimed == [
        (0, 6), (6, 7), (7, 8), (8, 10), (10, 14), (14, 14), (14, 15)]

    shipped = _envelope_batches(p for src, p in sent if src == writer.site)
    assert _ranges(shipped) == claimed
    assert [type(op) for op in shipped[1].ops] == [InsertOp]
    assert [type(op) for op in shipped[2].ops] == [DeleteOp]
    (flatten,) = shipped[5].ops
    assert isinstance(flatten, FlattenOp) and flatten.txn is not None

    records, _, _ = read_segment(writer.store.wal_path)
    journaled = _envelope_batches(record.payload for record in records
                                  if record.kind == RECORD_ENVELOPE)
    assert _ranges(journaled) == claimed
    assert cluster.assert_converged() == writer.atoms()


def test_editor_session_ships_batches(monkeypatch):
    doc = SharedDocument(2, seed=3)
    sent = _capture(doc.network, monkeypatch)
    user = doc[1]
    claimed = []
    for edit in (lambda: user.type(0, "hello"), lambda: user.erase(1, 3),
                 lambda: user.replace(0, 1, "J")):
        before = user.buffer.doc.op_seq
        edit()
        claimed.append((before, user.buffer.doc.op_seq))
    doc.sync()
    assert _ranges(_envelope_batches(p for _, p in sent)) == claimed
    assert doc.assert_converged() == "Jlo"


def test_replica_merge_of_a_bare_op_journals_a_batch(tmp_path):
    replica = Replica(1, store=_store(tmp_path / "r"))
    op = Treedoc(site=2).insert(0, "q")
    assert replica.merge(op) == 1
    assert replica.merged_batches == 1
    assert replica.doc.op_seq == 0  # a merge claims no seq number
    records, _, _ = read_segment(replica.store.wal_path)
    (event,) = [decode_frame(record.payload) for record in records
                if record.kind == RECORD_REMOTE]
    assert isinstance(event, OpBatch)
    assert event.ops == (op,)
    assert event.seq_start == event.seq_end


def test_replica_recovers_merged_bare_ops(tmp_path):
    remote = Treedoc(site=2)
    ops = [remote.insert(0, "a"), remote.insert(1, "b"), remote.delete(0)]
    replica = Replica(1, store=_store(tmp_path / "r"))
    for op in ops:
        replica.merge(op)
    replica.edit(1, 1, "!")
    posids = replica.doc.posids()
    replica.store.close()  # crash: nothing but the journal survives
    again = Replica(1, store=_store(tmp_path / "r"))
    assert again.text() == "b!" == remote.text() + "!"
    assert again.doc.posids() == posids
    assert again.merged_batches == len(ops)


def test_replica_recovers_a_bare_op_record_from_an_older_journal(tmp_path):
    op = Treedoc(site=2).insert(0, "z")
    store = _store(tmp_path / "r")
    store.attach(1, "udis")
    store.append(RECORD_REMOTE, encode_operation(op)[0])
    store.close()
    replica = Replica(1, store=_store(tmp_path / "r"))
    assert replica.text() == "z"
    assert replica.doc.posids() == [op.posid]


@pytest.mark.parametrize("mode", ["udis", "sdis"])
def test_site_applies_a_bare_op_envelope_from_an_older_peer(mode):
    cluster = Cluster(2, mode=mode, seed=7)
    cluster.bootstrap(list("ab"))
    # Site 1 edits as the parent code did: one bare op per envelope.
    op = cluster[1].doc.insert(1, "x")
    clock = cluster[1].broadcast.clock.tick(1)
    payload, bits = encode_operation(op)
    cluster.network.send(1, 2, encode_wire(
        EnvelopeFrame(1, clock, payload, bits)))
    cluster.settle()
    assert cluster[2].text() == "axb"
    assert cluster[2].broadcast.clock == clock
    assert cluster[2].doc.posid_at(1) == op.posid
