"""Exception hierarchy for the repro package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class. Finer-grained classes signal where in the stack
the problem occurred (identifier algebra, tree storage, replication, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PathError(ReproError):
    """An invalid PosID path was supplied or constructed."""


class AllocationError(ReproError):
    """``newPosID`` could not allocate an identifier between two bounds."""


class TreeError(ReproError):
    """The Treedoc tree was asked to do something inconsistent."""


class MissingAtomError(TreeError):
    """No (live) atom exists at the target PosID."""


class EncodingError(ReproError):
    """Wire or disk encoding/decoding failed."""


class DecodeError(EncodingError):
    """A wire payload could not be decoded: truncated input, trailing
    garbage, or a corrupt/invalid record. Raised by the public decode
    entry points of :mod:`repro.core.encoding` and
    :mod:`repro.replication.wire`; low-level stream primitives keep
    raising :class:`EncodingError`. The simulated network treats a
    handler raising this as a lost transmission and retransmits.

    Carries attribution context so daemon logs and retransmit counters
    can say *what* failed, not just that something did:

    - ``frame_kind`` — the wire frame kind name (``"envelope"``,
      ``"sync_request"``, ...) when the header survived enough to read
      it, else None;
    - ``offset`` — byte offset into the payload where decoding stopped
      (None when unknown, e.g. a whole-frame CRC mismatch);
    - ``length`` — the damaged payload's byte length, when known.
    """

    def __init__(self, message: str = "", *, frame_kind: str | None = None,
                 offset: int | None = None,
                 length: int | None = None) -> None:
        super().__init__(message)
        self.frame_kind = frame_kind
        self.offset = offset
        self.length = length

    def context(self) -> str:
        """The attribution fields as a log-ready suffix."""
        parts = []
        if self.frame_kind is not None:
            parts.append(f"kind={self.frame_kind}")
        if self.offset is not None:
            parts.append(f"offset={self.offset}")
        if self.length is not None:
            parts.append(f"length={self.length}")
        return " ".join(parts)


class CorruptFrameError(DecodeError):
    """A wire frame failed its integrity check (CRC mismatch): the
    bytes were damaged in transit. A strict subset of
    :class:`DecodeError` so transports need only one except clause."""


class FrameSyncError(DecodeError):
    """A byte *stream* lost frame alignment: the transport framing
    header (:mod:`repro.server.framing`) did not start where expected.
    The reader has already discarded bytes up to the next plausible
    frame boundary — ``offset`` says how many — so the caller may
    simply continue reading, or drop the connection if it prefers."""


class SyncError(ReproError):
    """A state-transfer (anti-entropy) exchange was invalid: mode
    mismatch, diverged replicas, or a corrupt snapshot."""


class PendingEditsError(SyncError):
    """A state sync was refused because local edits are still pending
    in an outbox (they would be silently lost by adopting a snapshot).
    Recovery and anti-entropy code distinguish this from a stale
    snapshot: the cure is to ship the pending batches, not to pick a
    fresher peer."""


class StaleStateError(SyncError):
    """A state sync was refused because the offered snapshot's causal
    frontier does not dominate the receiver's — the receiver has
    applied events the snapshot lacks. The cure is replay, or a peer
    that is strictly ahead; shipping an outbox would not help."""


class StorageError(ReproError):
    """The durable store was misused (wrong site or mode for a
    recovered image, unknown record kind, appends to a closed log), or
    an append failed in the operating system (``errno`` then names the
    cause, e.g. ``ENOSPC``). Torn or corrupted log *content* is never a
    StorageError — it surfaces internally as :class:`DecodeError` and
    recovery truncates to the last intact record."""

    def __init__(self, message: str, errno: int | None = None) -> None:
        super().__init__(message)
        self.errno = errno


class ReplicationError(ReproError):
    """Causal delivery or site bookkeeping was violated."""


class DaemonError(ReproError):
    """The asyncio site daemon (:mod:`repro.server`) was misused or hit
    an unrecoverable serving condition (bad configuration, duplicate
    local site, admin-protocol violation)."""


class OverloadedError(DaemonError):
    """The daemon's admission gate refused work because a queue or
    in-flight cap was reached — the typed, *expected* refusal under
    overload. Callers back off and retry; remote peers receive the
    wire-level equivalent (``SyncDecline(busy)``) or have their
    re-requestable frames shed."""


class CausalityError(ReplicationError):
    """An operation was delivered before its causal dependencies."""


class CommitError(ReproError):
    """A distributed commitment (flatten) protocol error."""


class WorkloadError(ReproError):
    """A trace or corpus could not be generated or replayed."""
