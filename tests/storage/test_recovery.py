"""DurableStore checkpointing, rotation, and replica recovery."""

import pytest

from repro import Replica
from repro.errors import PendingEditsError, StaleStateError, StorageError
from repro.replication.cluster import Cluster
from repro.storage import (
    CrashError,
    CrashInjector,
    DurableStore,
    RECORD_ENVELOPE,
    tear_store,
)


def _store(root, **kwargs):
    kwargs.setdefault("fsync", False)  # tests simulate crashes; the
    # process survives, so the OS page cache is "durable enough".
    return DurableStore(root, **kwargs)


class TestStoreBasics:
    def test_fresh_directory_recovers_empty(self, tmp_path):
        store = _store(tmp_path / "s")
        recovered = store.recover()
        assert recovered.fresh
        assert recovered.checkpoint is None
        assert recovered.records == []

    def test_append_then_recover(self, tmp_path):
        store = _store(tmp_path / "s")
        store.recover()
        store.append(RECORD_ENVELOPE, b"one")
        store.append(RECORD_ENVELOPE, b"two")
        store.close()
        again = _store(tmp_path / "s")
        recovered = again.recover()
        assert [r.payload for r in recovered.records] == [b"one", b"two"]
        assert recovered.truncated_bytes == 0

    def test_torn_tail_truncates_physically(self, tmp_path):
        store = _store(tmp_path / "s")
        store.recover()
        store.append(RECORD_ENVELOPE, b"keep me")
        store.append(RECORD_ENVELOPE, b"lose me")
        store.close()
        path = store.wal_path
        size = path.stat().st_size
        tear_store(tmp_path / "s", offset=size - 3)
        again = _store(tmp_path / "s")
        recovered = again.recover()
        assert [r.payload for r in recovered.records] == [b"keep me"]
        assert recovered.truncated_bytes > 0
        # The repair is physical: a third recovery sees a clean file.
        third = _store(tmp_path / "s").recover()
        assert third.truncated_bytes == 0
        assert [r.payload for r in third.records] == [b"keep me"]

    def test_append_after_recovery_continues_the_log(self, tmp_path):
        store = _store(tmp_path / "s")
        store.recover()
        store.append(RECORD_ENVELOPE, b"a")
        store.close()
        again = _store(tmp_path / "s")
        again.recover()
        again.append(RECORD_ENVELOPE, b"b")
        again.close()
        final = _store(tmp_path / "s").recover()
        assert [r.payload for r in final.records] == [b"a", b"b"]

    def test_closed_store_refuses_appends(self, tmp_path):
        store = _store(tmp_path / "s")
        store.close()
        with pytest.raises(StorageError):
            store.append(RECORD_ENVELOPE, b"x")

    def test_attach_refuses_wrong_site(self, tmp_path):
        store = _store(tmp_path / "s")
        store.recover()
        store.attach(1, "udis")
        with pytest.raises(StorageError):
            store.attach(2, "udis")
        with pytest.raises(StorageError):
            store.attach(1, "sdis")


class TestCheckpointRotation:
    def _checkpoint_frame(self, site=1):
        from repro.replication.clock import VectorClock
        from repro.replication.wire import SyncResponse
        from repro.core.treedoc import Treedoc

        doc = Treedoc(site)
        doc.insert_text(0, "abc")
        return SyncResponse(site, VectorClock(), doc.capture_state()).to_wire()

    def test_checkpoint_rotates_and_prunes(self, tmp_path):
        store = _store(tmp_path / "s")
        store.recover()
        store.append(RECORD_ENVELOPE, b"pre")
        store.write_checkpoint(self._checkpoint_frame())
        assert store.segment_id == 1
        assert not (tmp_path / "s" / "wal-00000000.log").exists()
        assert (tmp_path / "s" / "checkpoint-00000001.bin").exists()
        # The checkpoint file and the WAL are the whole store.
        assert not (tmp_path / "s" / "MANIFEST.json").exists()
        # Past the one retained previous generation, older ones go.
        store.write_checkpoint(self._checkpoint_frame())
        store.write_checkpoint(self._checkpoint_frame())
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
            "checkpoint-00000002.bin", "checkpoint-00000003.bin",
            "wal-00000002.log", "wal-00000003.log",
        ]

    def test_retain_keeps_previous_generation(self, tmp_path):
        store = _store(tmp_path / "s")
        store.recover()
        store.append(RECORD_ENVELOPE, b"pre")
        store.write_checkpoint(self._checkpoint_frame())
        store.append(RECORD_ENVELOPE, b"mid")
        store.write_checkpoint(self._checkpoint_frame())
        root = tmp_path / "s"
        assert (root / "checkpoint-00000002.bin").exists()
        assert (root / "checkpoint-00000001.bin").exists()
        assert not (root / "wal-00000000.log").exists()
        assert (root / "wal-00000001.log").exists()

    def test_retain_counts_checkpoint_files_when_ids_skip(self, tmp_path):
        injector = CrashInjector()
        store = _store(tmp_path / "s", crash_points=injector)
        store.recover()
        store.append(RECORD_ENVELOPE, b"one")
        store.write_checkpoint(self._checkpoint_frame())
        store.append(RECORD_ENVELOPE, b"two")
        # Segment 2 opens, checkpoint 2 is never published.
        injector.arm("checkpoint.after_rotate")
        with pytest.raises(CrashError):
            store.write_checkpoint(self._checkpoint_frame())
        again = _store(tmp_path / "s")
        again.recover()
        again.append(RECORD_ENVELOPE, b"three")
        again.write_checkpoint(self._checkpoint_frame())
        root = tmp_path / "s"
        assert sorted(p.name for p in root.iterdir()) == [
            "checkpoint-00000001.bin", "checkpoint-00000003.bin",
            "wal-00000001.log", "wal-00000002.log", "wal-00000003.log",
        ]
        # The retained generation still replays everything after it.
        (root / "checkpoint-00000003.bin").write_bytes(b"damaged")
        recovered = _store(root).recover()
        assert recovered.checkpoint_id == 1
        assert [r.payload for r in recovered.records] == [b"two", b"three"]

    def test_recovery_skips_corrupt_checkpoint(self, tmp_path):
        store = _store(tmp_path / "s")
        store.recover()
        store.append(RECORD_ENVELOPE, b"pre")
        store.write_checkpoint(self._checkpoint_frame())
        store.append(RECORD_ENVELOPE, b"tail1")
        store.write_checkpoint(self._checkpoint_frame())
        store.append(RECORD_ENVELOPE, b"tail2")
        store.close()
        # At-rest bit flip in the NEWEST checkpoint: recovery falls
        # back to the retained previous generation and replays more WAL.
        newest = tmp_path / "s" / "checkpoint-00000002.bin"
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0x40
        newest.write_bytes(bytes(data))
        recovered = _store(tmp_path / "s").recover()
        assert recovered.checkpoint_id == 1
        assert recovered.corrupt_checkpoints == 1
        assert [r.payload for r in recovered.records] == [b"tail1", b"tail2"]

    def test_checkpoint_requires_crc_terminated_frame(self, tmp_path):
        store = _store(tmp_path / "s")
        store.recover()
        with pytest.raises(StorageError):
            store.write_checkpoint(b"not a wire frame")

    def test_meta_survives_in_manifest_and_wal(self, tmp_path):
        store = _store(tmp_path / "s")
        store.recover()
        store.attach(7, "udis")
        store.append(RECORD_ENVELOPE, b"x")
        store.write_checkpoint(self._checkpoint_frame(7),
                               meta={"op_seq": 42, "dis_counter": 9})
        store.close()
        # The counters live in the new segment's META record only.
        assert not (tmp_path / "s" / "MANIFEST.json").exists()
        recovered = _store(tmp_path / "s").recover()
        assert recovered.meta["site"] == 7
        assert recovered.meta["op_seq"] == 42
        assert recovered.meta["dis_counter"] == 9


class TestCrashPoints:
    def test_crash_before_checkpoint_rename_keeps_old_generation(
            self, tmp_path):
        injector = CrashInjector()
        store = _store(tmp_path / "s", crash_points=injector)
        store.recover()
        store.append(RECORD_ENVELOPE, b"pre")
        injector.arm("checkpoint.rename")
        from repro.core.treedoc import Treedoc
        from repro.replication.clock import VectorClock
        from repro.replication.wire import SyncResponse

        doc = Treedoc(1)
        doc.insert_text(0, "abc")
        frame = SyncResponse(1, VectorClock(), doc.capture_state()).to_wire()
        with pytest.raises(CrashError):
            store.write_checkpoint(frame)
        assert injector.fired == ["checkpoint.rename"]
        # The crash died before the rename: no checkpoint, WAL intact.
        recovered = _store(tmp_path / "s").recover()
        assert recovered.checkpoint is None
        assert [r.payload for r in recovered.records] == [b"pre"]

    def test_crash_between_checkpoint_and_rotation_is_safe(self, tmp_path):
        injector = CrashInjector()
        store = _store(tmp_path / "s", crash_points=injector)
        store.recover()
        store.append(RECORD_ENVELOPE, b"pre")
        injector.arm("checkpoint.after_write")
        from repro.core.treedoc import Treedoc
        from repro.replication.clock import VectorClock
        from repro.replication.wire import SyncResponse

        doc = Treedoc(1)
        doc.insert_text(0, "abc")
        frame = SyncResponse(1, VectorClock(), doc.capture_state()).to_wire()
        with pytest.raises(CrashError):
            store.write_checkpoint(frame)
        # Checkpoint 1 was published after segment 1 opened: recovery
        # uses the checkpoint and skips segment 0 — safe, because the
        # checkpoint was taken after every record in it took effect, so
        # its contents are already in the snapshot.
        recovered = _store(tmp_path / "s").recover()
        assert recovered.checkpoint is not None
        assert recovered.checkpoint_id == 1
        assert recovered.records == []

    def test_torn_append_loses_only_the_torn_record(self, tmp_path):
        injector = CrashInjector()
        store = _store(tmp_path / "s", crash_points=injector)
        store.recover()
        store.append(RECORD_ENVELOPE, b"intact")
        injector.arm("wal.append.torn", keep_bytes=5)
        with pytest.raises(CrashError):
            store.append(RECORD_ENVELOPE, b"torn away")
        recovered = _store(tmp_path / "s").recover()
        assert [r.payload for r in recovered.records] == [b"intact"]
        assert recovered.truncated_bytes == 5


class TestFacadeRecovery:
    def test_outbox_restored_until_drained(self, tmp_path):
        a = Replica(1, store=_store(tmp_path / "a"))
        a.edit(0, 0, "hi")
        a.store.close()
        b = Replica(1, store=_store(tmp_path / "a"))
        assert b.text() == "hi"
        assert len(b.pending(clear=False)) == 1
        # Drain, then crash: recovery must NOT resurrect the batch.
        drained = b.pending()
        assert len(drained) == 1
        b.store.close()
        c = Replica(1, store=_store(tmp_path / "a"))
        assert c.text() == "hi"
        assert c.pending(clear=False) == []

    def test_checkpoint_relogs_pending_outbox(self, tmp_path):
        a = Replica(1, store=_store(tmp_path / "a", checkpoint_every=2))
        a.edit(0, 0, "x")
        a.edit(1, 1, "y")  # cadence hits: checkpoint with pending outbox
        assert a.store.checkpoints_written == 1
        a.store.close()
        b = Replica(1, store=_store(tmp_path / "a"))
        assert b.text() == "xy"
        # Both batches still pending (never drained), but neither was
        # re-applied (the checkpoint already contains them).
        assert len(b.pending(clear=False)) == 2
        other = Replica(2)
        for batch in b.pending():
            other.merge(batch)
        assert other.text() == "xy"

    def test_undecodable_record_truncates_the_tail(self, tmp_path):
        from repro.storage import RECORD_LOCAL

        a = Replica(1, store=_store(tmp_path / "a"))
        a.edit(0, 0, "ok")
        # An intact record CRC around content no decoder accepts.
        a.store.append(RECORD_LOCAL, b"\xff\xff\xff")
        a.edit(2, 2, "!")
        a.store.close()
        b = Replica(1, store=_store(tmp_path / "a"))
        assert b.text() == "ok"
        assert len(b.pending(clear=False)) == 1
        b.store.close()
        # The cut is on disk: the next recovery sees one record.
        assert len(_store(tmp_path / "a").recover().records) == 1

    def test_counters_restored_identifiers_stay_fresh(self, tmp_path):
        a = Replica(1, store=_store(tmp_path / "a"))
        a.edit(0, 0, "abc")
        seq_before = a.doc.op_seq
        dis_before = a.doc.dis_counter
        a.store.close()
        b = Replica(1, store=_store(tmp_path / "a"))
        assert b.doc.op_seq >= seq_before
        assert b.doc.dis_counter >= dis_before
        batch = b.edit(3, 3, "d")
        assert batch.seq_start >= seq_before

    def test_remote_merges_survive(self, tmp_path):
        a = Replica(1, store=_store(tmp_path / "a"))
        remote = Replica(2)
        remote.edit(0, 0, "hello")
        for batch in remote.pending():
            a.merge(batch)
        a.edit(5, 5, "!")
        a.store.close()
        b = Replica(1, store=_store(tmp_path / "a"))
        assert b.text() == "hello!"
        assert b.merged_batches == 1

    def test_sync_refusal_explains_pending_outbox(self, tmp_path):
        a = Replica(1)
        b = Replica(2)
        a.edit(0, 0, "mine")
        with pytest.raises(PendingEditsError, match="pending in this "
                           "replica's outbox"):
            a.sync(b)
        a.pending()
        b.edit(0, 0, "theirs")
        with pytest.raises(PendingEditsError, match="unshipped batches"):
            a.sync(b)

    def test_sync_checkpoints_adoption(self, tmp_path):
        src = Replica(2)
        src.edit(0, 0, "state")
        src.pending()
        a = Replica(1, store=_store(tmp_path / "a"))
        a.sync(src)
        assert a.store.checkpoints_written == 1
        a.store.close()
        b = Replica(1, store=_store(tmp_path / "a"))
        assert b.text() == "state"


class TestSiteRecovery:
    def test_site_recovers_and_rejoins(self, tmp_path):
        cluster = Cluster(2, seed=3)
        store = _store(tmp_path / "s3", checkpoint_every=64)
        s3 = cluster.add_site(3, store=store)
        cluster[1].insert_text(0, "shared")
        cluster.settle()
        s3.insert_text(6, " text")
        cluster.settle()
        cluster.assert_converged()
        cluster.crash_site(3)
        cluster[2].insert_text(0, "new ")
        cluster.settle()
        s3b = cluster.add_site(3, store=_store(tmp_path / "s3"))
        assert s3b.text() == "shared text"  # checkpointless WAL replay
        s3b.request_sync(1)
        cluster.settle()
        atoms = cluster.assert_converged()
        assert "".join(map(str, atoms)) == "new shared text"
        # Identifier identity, not just text equality.
        posids_1 = [cluster[1].doc.posid_at(i)
                    for i in range(len(cluster[1].doc))]
        posids_3 = [s3b.doc.posid_at(i) for i in range(len(s3b.doc))]
        assert posids_1 == posids_3

    def test_received_envelopes_journal_as_received(self, tmp_path,
                                                    monkeypatch):
        from repro.replication import wire
        from repro.storage.wal import read_segment

        cluster = Cluster(1, seed=7)
        store = _store(tmp_path / "s2", checkpoint_every=None)
        cluster.add_site(2, store=store)
        sent = []
        send = cluster.network.send

        def record(src, dst, payload):
            if dst == 2:
                sent.append(bytes(payload))
            send(src, dst, payload)

        monkeypatch.setattr(cluster.network, "send", record)
        cluster[1].insert_text(0, "abc")
        cluster[1].delete(1)

        def no_reencode(frame):
            raise AssertionError(f"re-encoded {frame!r}")

        # Delivery must journal the received bytes, not a re-encoding.
        monkeypatch.setattr(wire, "encode_wire", no_reencode)
        cluster.settle()
        store.close()
        records, _, _ = read_segment(store.wal_path)
        assert len(sent) == 2
        assert [r.payload for r in records
                if r.kind == RECORD_ENVELOPE] == sent

    def test_site_checkpoint_cadence_bounds_replay(self, tmp_path):
        cluster = Cluster(1, seed=5)
        store = _store(tmp_path / "s2", checkpoint_every=4)
        s2 = cluster.add_site(2, store=store)
        for i in range(10):
            s2.insert_text(i, "x")
            cluster.settle()
        assert store.checkpoints_written >= 2
        cluster.crash_site(2)
        s2b = cluster.add_site(2, store=_store(tmp_path / "s2",
                                               checkpoint_every=4))
        assert s2b.text() == "x" * 10
        # Replay was bounded by the cadence, not the whole history.
        assert s2b.recovered_events <= 4

    def test_stale_state_transfer_names_lagging_origins(self, tmp_path):
        cluster = Cluster(2, seed=11)
        cluster[1].insert_text(0, "ahead")  # not settled: site 2 is behind
        with pytest.raises(StaleStateError, match=r"origin 1: offered 0 < "
                           r"local 1"):
            # Site 1 syncing from site 2's (empty-frontier) snapshot.
            cluster[1].sync_from(cluster[2])

    def test_own_unshipped_envelope_is_rebroadcast(self, tmp_path):
        injector = CrashInjector()
        cluster = Cluster(2, seed=13)
        store = _store(tmp_path / "s3", crash_points=injector)
        s3 = cluster.add_site(3, store=store)
        cluster[1].insert_text(0, "base")
        cluster.settle()
        # Crash AFTER the journal fsync but BEFORE the network send:
        # the edit is durable locally yet never shipped.
        injector.arm("wal.append.after")  # next append: the "!" mint
        with pytest.raises(CrashError):
            s3.insert_text(4, "!")
        cluster.crash_site(3)
        s3b = cluster.add_site(3, store=_store(tmp_path / "s3"))
        assert s3b.reshipped_envelopes == 1
        cluster.settle()
        atoms = cluster.assert_converged()
        assert "".join(map(str, atoms)) == "base!"

    def test_udis_counter_survives_crash(self, tmp_path):
        cluster = Cluster(1, seed=17)
        store = _store(tmp_path / "s2")
        s2 = cluster.add_site(2, store=store)
        s2.insert_text(0, "abc")
        cluster.settle()
        minted = s2.doc.dis_counter
        assert minted >= 3
        cluster.crash_site(2)
        s2b = cluster.add_site(2, store=_store(tmp_path / "s2"))
        assert s2b.doc.dis_counter >= minted
