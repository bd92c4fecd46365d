"""A crash at any step of a checkpoint loses no mint counter and no
pending batch.

Each test takes one checkpoint cleanly, keeps editing, and dies inside
the second checkpoint at one named crash point. The replica that
recovers from the files left behind must hold mint counters at least
as high as before the crash, so no identifier it mints afterwards
equals one it minted before (UDIS identity rests on never reusing a
``(counter, site)`` disambiguator), and a facade replica must hold the
same pending batches, in the same order, each exactly once.
"""

import pytest

from repro import Replica
from repro.core.disambiguator import Udis
from repro.core.ops import InsertOp
from repro.replication.cluster import Cluster
from repro.storage import CrashError, CrashInjector, DurableStore

CRASH_POINTS = [
    "checkpoint.before",
    "checkpoint.rename",
    "checkpoint.after_write",
    "checkpoint.after_rotate",
    "prune.before",
]


def _store(root, injector=None):
    return DurableStore(root, checkpoint_every=None, fsync=False,
                        crash_points=injector)


def _inserted(batches):
    return [op.posid for batch in batches for op in batch.ops
            if isinstance(op, InsertOp)]


def _own_counters(posids, site):
    return {element.dis.counter for posid in posids
            for element in posid.elements
            if isinstance(element.dis, Udis) and element.dis.site == site}


def _assert_fresh(before, after, site):
    assert not set(after) & set(before)
    assert not _own_counters(after, site) & _own_counters(before, site)


def _crash_facade(root, point, **arm):
    """Insert and delete twice around one clean checkpoint, then die
    at ``point`` inside the second: the document is empty, so only
    the persisted counters know which identifiers were minted."""
    injector = CrashInjector()
    replica = Replica(1, mode="udis", store=_store(root, injector))
    batches = [replica.edit(0, 0, "a"), replica.edit(0, 1)]
    replica.checkpoint()
    batches += [replica.edit(0, 0, "b"), replica.edit(0, 1)]
    injector.arm(point, **arm)
    with pytest.raises(CrashError):
        replica.checkpoint()
    assert injector.fired == [point]
    return replica, batches


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_site_counters_survive_checkpoint_crash(tmp_path, point):
    injector = CrashInjector()
    cluster = Cluster(1, mode="udis", seed=41)
    site = cluster.add_site(2, store=_store(tmp_path / "s", injector))
    minted = [site.insert(0, "a").posid]
    site.delete(0)
    site.checkpoint()
    minted.append(site.insert(0, "b").posid)
    site.delete(0)
    cluster.settle()
    op_seq, dis_counter = site.doc.op_seq, site.doc.dis_counter
    injector.arm(point)
    with pytest.raises(CrashError):
        site.checkpoint()
    cluster.crash_site(2)
    again = cluster.add_site(2, store=_store(tmp_path / "s"))
    assert again.doc.op_seq >= op_seq
    assert again.doc.dis_counter >= dis_counter
    fresh = [again.insert(0, "c").posid]
    fresh += _inserted([again.insert_text(1, list("de"))])
    _assert_fresh(minted, fresh, 2)
    cluster.settle()
    cluster.assert_converged()


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_facade_counters_survive_checkpoint_crash(tmp_path, point):
    before, batches = _crash_facade(tmp_path / "a", point)
    again = Replica(1, mode="udis", store=_store(tmp_path / "a"))
    assert again.doc.op_seq >= before.doc.op_seq
    assert again.doc.dis_counter >= before.doc.dis_counter
    fresh = [again.edit(0, 0, "c"), again.edit(1, 1, "de")]
    _assert_fresh(_inserted(batches), _inserted(fresh), 1)
    assert fresh[0].seq_start >= before.doc.op_seq


@pytest.mark.parametrize("point,arm", [
    *(pytest.param(point, {}, id=point) for point in CRASH_POINTS),
    # A torn write of each outbox re-log the checkpoint appends.
    *(pytest.param("wal.append.torn", {"at": at, "keep_bytes": 5},
                   id=f"wal.append.torn-{at}") for at in range(1, 5)),
])
def test_facade_outbox_survives_checkpoint_crash(tmp_path, point, arm):
    before, batches = _crash_facade(tmp_path / "a", point, **arm)
    pending = [batch.digest for batch in before.pending(clear=False)]
    assert pending == [batch.digest for batch in batches]
    again = Replica(1, mode="udis", store=_store(tmp_path / "a"))
    assert again.text() == ""
    assert [batch.digest for batch in again.pending(clear=False)] == pending
    # What recovery queued ships once and replays cleanly elsewhere.
    peer = Replica(2, mode="udis")
    peer.merge(again.pending())
    assert peer.text() == ""
