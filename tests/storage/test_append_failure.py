"""A WAL append that fails in the operating system stops the store.

A record is acknowledged when ``DurableStore.append`` returns. If the
write fails part-way (a full disk) the segment would otherwise keep a
torn prefix, and recovery's scan stops at the first torn record — so
every record acknowledged *after* the failure would be lost. Callers
change state before they journal, so a later record may depend on the
failed one: the store therefore cuts the torn prefix and closes, and
refuses every later append. These tests make the file handle write a
prefix and then fail, and check that recovery returns exactly the
acknowledged records.
"""

import errno
import os

import pytest

from repro.errors import StorageError
from repro.storage import RECORD_ENVELOPE, DurableStore


class FailingHandle:
    """Wraps the store's segment handle: ``write`` puts ``keep`` bytes
    of its data in the file, then raises ``OSError``."""

    def __init__(self, inner, keep: int, code: int) -> None:
        self.inner = inner
        self.keep = keep
        self.code = code

    def write(self, data: bytes) -> int:
        self.inner.write(data[:self.keep])
        self.inner.flush()
        raise OSError(self.code, os.strerror(self.code))

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _payloads(root) -> list:
    recovered = DurableStore(root, fsync=False).recover()
    return [record.payload for record in recovered.records]


def _opened(root, fsync: bool = False) -> DurableStore:
    store = DurableStore(root, fsync=fsync)
    store.recover()
    store.append(RECORD_ENVELOPE, b"first")
    return store


@pytest.mark.parametrize("keep", [0, 1, 7, 40])
def test_failed_write_closes_the_store(tmp_path, keep):
    store = _opened(tmp_path)
    size = store.wal_bytes
    store._handle = FailingHandle(store._handle, keep, errno.ENOSPC)
    with pytest.raises(StorageError) as info:
        store.append(RECORD_ENVELOPE, b"never acknowledged" * 4)
    assert info.value.errno == errno.ENOSPC
    assert store.wal_bytes == size  # the torn prefix is cut
    # Nothing is acknowledged behind the failed record.
    with pytest.raises(StorageError, match="closed"):
        store.append(RECORD_ENVELOPE, b"second")
    assert _payloads(tmp_path) == [b"first"]


def test_failed_fsync_closes_the_store(tmp_path, monkeypatch):
    store = _opened(tmp_path, fsync=True)
    real_fsync = os.fsync
    calls = []

    def failing_fsync(fd):
        if not calls:
            calls.append(fd)
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(StorageError) as info:
        store.append(RECORD_ENVELOPE, b"not durable")
    assert info.value.errno == errno.EIO
    monkeypatch.setattr(os, "fsync", real_fsync)
    with pytest.raises(StorageError, match="closed"):
        store.append(RECORD_ENVELOPE, b"refused")
    assert _payloads(tmp_path) == [b"first"]
