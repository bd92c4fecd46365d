"""Durable sites: the write-ahead log + checkpoint store behind a replica.

One :class:`DurableStore` owns one directory::

    root/
      checkpoint-00000002.bin  # one encoded SyncResponse wire frame
      wal-00000002.log         # META record, then everything logged
                               # since that checkpoint

The generation discipline ties the two halves together:

- WAL segment ``n`` holds every record logged *after* checkpoint ``n``
  was taken (segment 0 pairs with the empty document); its first
  record is ``META``, the bookkeeping a state frame cannot carry (site,
  mode and the mint counters ``op_seq`` and ``dis_counter``);
- a checkpoint is one :class:`repro.replication.wire.SyncResponse`
  frame — the exact anti-entropy message: document state via
  ``Treedoc.capture_state`` (the tree-walk state frame) and the causal
  frontier, whose clock stamps the checkpoint's SDIS tombstones;
- taking checkpoint ``n+1`` while segment ``n`` is current
  (:meth:`DurableStore.write_checkpoint`, the one checkpoint step of
  sites and facade replicas alike) means: open ``wal-(n+1)`` with its
  ``META`` record, re-log the owner's still-pending batches as
  ``OUTBOX`` records, *then* publish ``checkpoint-(n+1)`` with the
  atomic temp + fsync + rename protocol, then prune generations older
  than the retention window. Everything a published checkpoint relies
  on — its counters and its outbox — is durable before the rename
  makes it visible; a crash anywhere earlier leaves the previous
  checkpoint in charge, and the older segments still hold the records
  it needs.

Recovery (:meth:`DurableStore.recover`) is the inverse state machine:

1. pick the newest checkpoint file whose trailing CRC-32 verifies
   (the frame closes with one — the wire discipline doubles as the
   at-rest integrity check); fall back generation by generation;
2. scan WAL segments with id >= that checkpoint's, in order; the first
   torn or corrupted record ends the scan — the file is truncated to
   the last intact record and any later segment is dropped. ``OUTBOX``
   records count only in the recovered checkpoint's own segment: a
   later segment's restate a checkpoint that was never published, and
   the ``LOCAL`` and ``DRAIN`` records before them already rebuild the
   same outbox;
3. hand the owner the checkpoint bytes plus the surviving records.
   :meth:`DurableStore.restore` is the owner's prologue — recover,
   :meth:`attach`, load the checkpoint's state frame into the document
   — and :meth:`RecoveredState.replay` feeds it the tail, truncating at
   the first record that fails to decode.

Crash points (:mod:`repro.storage.crash`) are evaluated at every step
of both protocols, which is how the tests pin each crash window to its
recovery outcome.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import DecodeError, StorageError
from repro.storage.crash import CrashError, CrashInjector
from repro.storage.wal import (
    RECORD_ENVELOPE,
    RECORD_LOCAL,
    RECORD_META,
    RECORD_OUTBOX,
    RECORD_REMOTE,
    WalRecord,
    pack_record,
    read_segment,
)
from repro.util.files import atomic_write_bytes, fsync_dir

_SEGMENT_GLOB = "wal-*.log"
_CHECKPOINT_GLOB = "checkpoint-*.bin"

#: Previous generations (checkpoint + WAL segment pairs) kept after a
#: checkpoint, as insurance against at-rest damage of the newest one.
RETAINED_GENERATIONS = 1

#: The META keys the store carries from segment to segment.
_META_KEYS = ("site", "mode", "op_seq", "dis_counter")

#: Record kinds that advance the checkpoint cadence (bookkeeping
#: records — META, OUTBOX re-logs, DRAIN markers — do not).
_COUNTED = (RECORD_ENVELOPE, RECORD_LOCAL, RECORD_REMOTE)


def _segment_path(root: Path, seg_id: int) -> Path:
    return root / f"wal-{seg_id:08d}.log"


def _checkpoint_path(root: Path, cp_id: int) -> Path:
    return root / f"checkpoint-{cp_id:08d}.bin"


def _file_id(path: Path) -> int:
    return int(path.stem.split("-", 1)[1])


def _crc_valid(data: bytes) -> bool:
    """The at-rest integrity test for a checkpoint file: every stored
    frame is a wire frame, i.e. body + trailing CRC-32."""
    import zlib

    from repro.replication.wire import CRC_BYTES

    if len(data) <= CRC_BYTES:
        return False
    body, crc = data[:-CRC_BYTES], data[-CRC_BYTES:]
    return zlib.crc32(body) == int.from_bytes(crc, "big")


@dataclass
class RecoveredState:
    """What :meth:`DurableStore.recover` hands the owning replica."""

    #: The newest valid checkpoint's frame bytes (None: start empty).
    checkpoint: Optional[bytes]
    #: Generation of that checkpoint (0 when starting empty).
    checkpoint_id: int
    #: Newest META bookkeeping seen (site, mode, op_seq, dis_counter).
    meta: Dict[str, object]
    #: Intact records after the checkpoint, in log order: every kind
    #: but META, and OUTBOX only from the checkpoint's own segment.
    records: List[WalRecord]
    #: Bytes discarded from torn/corrupt segment tails.
    truncated_bytes: int
    #: Older checkpoint files skipped because their CRC failed.
    corrupt_checkpoints: int = 0
    #: (segment path, record) pairs backing ``records`` (internal).
    _origins: List[Tuple[Path, WalRecord]] = field(default_factory=list,
                                                   repr=False)
    _store: Optional["DurableStore"] = field(default=None, repr=False)

    @property
    def fresh(self) -> bool:
        """True when there is nothing to recover (new directory)."""
        return self.checkpoint is None and not self.records

    def replay(self, handler: Callable[[WalRecord], None]) -> None:
        """Hand each tail record to ``handler``, in log order. A record
        whose content fails to decode (``handler`` raises
        :class:`DecodeError` despite an intact CRC — damage the header
        CRC cannot see, e.g. a flip inside a record written torn) ends
        the replay: it and everything after it are discarded, on disk
        too, like any torn tail."""
        for index, record in enumerate(self.records):
            try:
                handler(record)
            except DecodeError:
                path, bad = self._origins[index]
                self._store._truncate_segment(path, bad.offset)
                del self.records[index:]
                del self._origins[index:]
                return


class DurableStore:
    """Append-only WAL + checkpoints + recovery for one replica.

    Parameters
    ----------
    root:
        Directory owning the log (created if missing).
    checkpoint_every:
        Logged events (envelopes/batches) between automatic
        checkpoints; the owner polls :meth:`checkpoint_due`. ``None``
        disables cadence-driven checkpoints (explicit ones still work).
    fsync:
        fsync every append and checkpoint (the durable default); turn
        off only for tests and simulations where the process outlives
        every "crash".
    crash_points:
        Optional :class:`repro.storage.crash.CrashInjector` evaluated
        at every protocol step.
    """

    def __init__(self, root, checkpoint_every: Optional[int] = 64,
                 fsync: bool = True,
                 crash_points: Optional[CrashInjector] = None) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise StorageError("checkpoint_every must be at least 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = checkpoint_every
        self.fsync = fsync
        self.crash_points = crash_points
        self._meta: Dict[str, object] = {}
        self._segment_id = 0
        self._handle = None
        self._closed = False
        #: Monitoring counters.
        self.records_appended = 0
        self.bytes_appended = 0
        self.checkpoints_written = 0
        self.records_since_checkpoint = 0

    # -- identity -----------------------------------------------------------------

    def attach(self, site: int, mode: str) -> None:
        """Bind the store to one replica's identity; recovering a
        store written by a different site or document mode is refused
        (a deployment mix-up, not data damage)."""
        known_site = self._meta.get("site")
        known_mode = self._meta.get("mode")
        if known_site is not None and known_site != site:
            raise StorageError(
                f"store {self.root} belongs to site {known_site}, "
                f"not {site}"
            )
        if known_mode is not None and known_mode != mode:
            raise StorageError(
                f"store {self.root} holds a {known_mode} document, "
                f"not {mode}"
            )
        self._meta["site"] = site
        self._meta["mode"] = mode

    # -- appending ----------------------------------------------------------------

    def append(self, kind: int, payload: bytes = b"") -> None:
        """Append one record (and fsync it, by default) — the log-
        before-apply step of the durability protocol.

        A record is acknowledged only when this returns. An ``OSError``
        from the write, flush or fsync (a full disk, say) is fail-stop:
        the segment is cut back to where the record began, the
        store closes and :class:`StorageError` is raised with the errno.
        Callers change their state before they journal it, so a later
        record may depend on the one that failed; closing keeps the log
        a causally complete prefix instead of acknowledging records
        behind a hole.
        """
        if self._closed:
            raise StorageError(f"store {self.root} is closed")
        self._crash("wal.append.before")
        record = pack_record(kind, payload)
        handle = self._append_handle()
        offset = handle.tell()
        injector = self.crash_points
        if injector is not None:
            keep = injector.torn_write("wal.append.torn", len(record))
            if keep is not None:
                # The torn write: a prefix of the record reaches the
                # file, then the process dies.
                handle.write(record[:keep])
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
                raise CrashError("injected crash mid-append (torn write)")
        try:
            handle.write(record)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        except OSError as exc:
            self._drop_tail(offset)
            raise StorageError(
                f"WAL append to {self.wal_path} failed: {exc}; "
                "store closed",
                errno=exc.errno,
            ) from exc
        self._crash("wal.append.after")
        self.records_appended += 1
        self.bytes_appended += len(record)
        if kind in _COUNTED:
            self.records_since_checkpoint += 1

    def checkpoint_due(self) -> bool:
        """Whether the cadence asks for a checkpoint now."""
        return (
            self.checkpoint_every is not None
            and self.records_since_checkpoint >= self.checkpoint_every
        )

    # -- checkpointing -------------------------------------------------------------

    def write_checkpoint(self, frame: bytes,
                         meta: Optional[Dict[str, object]] = None,
                         outbox: Iterable[bytes] = ()) -> Path:
        """Persist ``frame`` (an encoded SyncResponse) as the new
        checkpoint: rotate the WAL, re-log ``outbox`` (the payloads of
        batches still pending) as ``OUTBOX`` records, publish the
        checkpoint, prune old generations. ``meta`` (the owner's mint
        counters) goes into the new segment's ``META`` record, which is
        on disk before the checkpoint that relies on it is renamed into
        place."""
        if self._closed:
            raise StorageError(f"store {self.root} is closed")
        if not _crc_valid(frame):
            raise StorageError(
                "checkpoint frame is not CRC-terminated; encode it with "
                "repro.replication.wire.encode_wire"
            )
        if meta:
            self._meta.update(meta)
        cp_id = self._segment_id + 1
        self._crash("checkpoint.before")
        self._open_segment(cp_id)
        self._crash("checkpoint.after_rotate")
        for payload in outbox:
            self.append(RECORD_OUTBOX, payload)
        path = _checkpoint_path(self.root, cp_id)
        atomic_write_bytes(
            path, frame, fsync=self.fsync,
            before_replace=lambda: self._crash("checkpoint.rename"),
        )
        self._crash("checkpoint.after_write")
        self._prune()
        self.checkpoints_written += 1
        self.records_since_checkpoint = 0
        return path

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> RecoveredState:
        """Read the directory back: newest valid checkpoint + the
        intact WAL tail (see the module docstring's state machine).
        Also repairs the files — torn tails are truncated — and leaves
        the store positioned to append after the last intact record.
        """
        checkpoints = sorted(self.root.glob(_CHECKPOINT_GLOB))
        segments = sorted(self.root.glob(_SEGMENT_GLOB))
        checkpoint_bytes: Optional[bytes] = None
        checkpoint_id = 0
        corrupt = 0
        for path in reversed(checkpoints):
            data = path.read_bytes()
            if _crc_valid(data):
                checkpoint_bytes = data
                checkpoint_id = _file_id(path)
                break
            corrupt += 1
        records: List[WalRecord] = []
        origins: List[Tuple[Path, WalRecord]] = []
        meta: Dict[str, object] = {}
        truncated = 0
        highest = checkpoint_id
        damaged = False
        for path in segments:
            seg_id = _file_id(path)
            if seg_id < checkpoint_id:
                continue
            if damaged:
                # Records beyond a damaged segment are causally suspect:
                # drop the whole later segment (recovery truncates to
                # the last good record, globally).
                truncated += path.stat().st_size
                path.unlink()
                continue
            highest = max(highest, seg_id)
            seg_records, good_end, size = read_segment(path)
            for record in seg_records:
                if record.kind == RECORD_META:
                    try:
                        meta.update(json.loads(record.payload))
                    except ValueError:
                        pass  # bookkeeping only; never fatal
                    continue
                if record.kind == RECORD_OUTBOX and seg_id != checkpoint_id:
                    continue  # restates an unpublished checkpoint
                records.append(record)
                origins.append((path, record))
            if good_end != size:
                truncated += size - good_end
                self._truncate_segment(path, good_end)
                damaged = True
        self._meta.update(
            {k: v for k, v in meta.items() if k in _META_KEYS}
        )
        self._segment_id = highest
        self._handle = None
        recovered = RecoveredState(
            checkpoint=checkpoint_bytes,
            checkpoint_id=checkpoint_id,
            meta=dict(meta),
            records=records,
            truncated_bytes=truncated,
            corrupt_checkpoints=corrupt,
            _origins=origins,
            _store=self,
        )
        self.records_since_checkpoint = sum(
            1 for r in records if r.kind in _COUNTED
        )
        return recovered

    def restore(self, doc) -> Tuple[Optional["SyncResponse"],
                                    RecoveredState]:
        """The startup prologue of a durable replica (site or facade):
        :meth:`recover`, :meth:`attach` to ``doc``'s identity, and load
        the checkpoint's state frame into ``doc``. Returns that frame
        (None when starting empty; its clock is the owner's to adopt)
        and the recovered tail, for the owner to
        :meth:`RecoveredState.replay` and then to restore the mint
        counters from (``Treedoc.restore_counters``)."""
        from repro.replication.wire import SyncResponse, decode_wire

        recovered = self.recover()
        self.attach(doc.site, doc.mode)
        frame = None
        if recovered.checkpoint is not None:
            frame = decode_wire(recovered.checkpoint)
            if not isinstance(frame, SyncResponse):
                raise StorageError(
                    f"store {self.root}: checkpoint does not hold a "
                    "state frame"
                )
            doc.load_state(frame.state)
        return frame, recovered

    # -- introspection -------------------------------------------------------------

    @property
    def segment_id(self) -> int:
        return self._segment_id

    @property
    def wal_path(self) -> Path:
        return _segment_path(self.root, self._segment_id)

    @property
    def wal_bytes(self) -> int:
        """Size of the current WAL segment on disk."""
        path = self.wal_path
        return path.stat().st_size if path.exists() else 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True

    # -- internals ----------------------------------------------------------------

    def _crash(self, point: str) -> None:
        if self.crash_points is not None:
            self.crash_points.check(point)

    def _append_handle(self):
        if self._handle is None:
            path = self.wal_path
            fresh = not path.exists()
            self._handle = open(path, "ab")
            if fresh:
                self._write_meta_record()
                if self.fsync:
                    fsync_dir(self.root)
        return self._handle

    def _write_meta_record(self) -> None:
        payload = json.dumps(
            {"format": 1, "segment": self._segment_id, **self._meta},
            sort_keys=True,
        ).encode("utf-8")
        record = pack_record(RECORD_META, payload)
        self._handle.write(record)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.bytes_appended += len(record)

    def _open_segment(self, seg_id: int) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._segment_id = seg_id
        # The META record is written on first open (lazily via
        # _append_handle), but rotation creates the segment eagerly so
        # recovery can tell "rotated, nothing logged yet" from "crash
        # before rotation".
        self._append_handle()

    def _prune(self) -> None:
        """Keep the newest checkpoint, :data:`RETAINED_GENERATIONS`
        previous ones, and the segments from the oldest kept one on.
        Generation ids can skip (a crash before the rename leaves a
        rotated segment with no checkpoint), so the window counts the
        checkpoint files, not the ids."""
        self._crash("prune.before")
        checkpoints = list(self.root.glob(_CHECKPOINT_GLOB))
        kept = sorted(map(_file_id, checkpoints))[-(RETAINED_GENERATIONS + 1):]
        keep_from = kept[0]
        for path in [*checkpoints, *self.root.glob(_SEGMENT_GLOB)]:
            if _file_id(path) < keep_from:
                path.unlink()

    def _drop_tail(self, offset: int) -> None:
        """Cut the current segment back to ``offset`` after a failed
        append, as far as the file allows, and close the store. The
        handle is closed first — its buffer may still hold the rest of
        the failed record, and closing may write some of it — so the
        truncation removes whatever reached the file."""
        handle, self._handle = self._handle, None
        try:
            handle.close()
        except OSError:
            pass  # the buffered remainder could not be written either
        try:
            self._truncate_segment(self.wal_path, offset)
        except OSError:
            pass  # recovery's scan cuts a torn tail
        self.close()

    def _truncate_segment(self, path: Path, offset: int) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        with open(path, "rb+") as handle:
            handle.truncate(offset)
            if self.fsync:
                os.fsync(handle.fileno())
