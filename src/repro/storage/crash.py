"""Deterministic crash injection for the durable-storage tests.

Two fault families make recover-then-converge testable without real
power cuts:

- **Crash points** — named hooks the store evaluates at every step of
  its write protocol (``wal.append.before``, ``checkpoint.rename``,
  ...). Arming a point makes the k-th visit raise :class:`CrashError`,
  which the harness treats as the process dying *at that instruction*:
  the store object is abandoned and a fresh one recovers from the
  files left behind. The ``wal.append.torn`` point additionally writes
  only a prefix of the record before dying — a torn write.
- **Kill at a byte offset** — :func:`tear_file` / :func:`tear_store`
  truncate the newest log segment at an arbitrary byte, modelling a
  crash that cut the tail of a buffered write anywhere at all. The
  recovery contract (exercised exhaustively in the tests) is that
  *every* byte prefix of a valid log either recovers cleanly or
  truncates to the last intact record — never a foreign exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional


class CrashError(RuntimeError):
    """An armed crash point fired: the simulated process died here.

    Deliberately *not* a :class:`repro.errors.ReproError`: library code
    must never catch it — the whole point is that the write protocol is
    abandoned mid-instruction, exactly like a kill -9.
    """


@dataclass
class _Armed:
    #: Fire on the ``at``-th visit (1-based).
    at: int
    #: For torn-write points: bytes of the record to write before dying.
    keep_bytes: Optional[int] = None
    hits: int = 0


class CrashInjector:
    """A registry of armed crash points, shared with a DurableStore."""

    def __init__(self) -> None:
        self._armed: Dict[str, _Armed] = {}
        #: Points that fired, in order (assertion aid).
        self.fired: List[str] = []

    def arm(self, point: str, at: int = 1,
            keep_bytes: Optional[int] = None) -> None:
        """Arm ``point`` to crash on its ``at``-th visit. For
        ``wal.append.torn``, ``keep_bytes`` bounds how much of the
        record reaches the file before the crash."""
        self._armed[point] = _Armed(at=at, keep_bytes=keep_bytes)

    def check(self, point: str) -> None:
        """Visit ``point``; raises :class:`CrashError` when armed and due."""
        armed = self._armed.get(point)
        if armed is None:
            return
        armed.hits += 1
        if armed.hits == armed.at:
            self.fired.append(point)
            raise CrashError(f"injected crash at {point}")

    def torn_write(self, point: str, total: int) -> Optional[int]:
        """Like :meth:`check` for torn-write points: when due, returns
        how many of ``total`` bytes to write before the crash (the
        caller writes that prefix, then calls :meth:`check` variantly —
        here we return and the caller raises). Returns None when the
        point is not due."""
        armed = self._armed.get(point)
        if armed is None:
            return None
        armed.hits += 1
        if armed.hits != armed.at:
            return None
        self.fired.append(point)
        keep = armed.keep_bytes
        if keep is None:
            keep = total // 2
        return max(0, min(keep, total))


def tear_file(path: Path, offset: int) -> int:
    """Truncate ``path`` to ``offset`` bytes (a crash that cut the
    tail). Returns the number of bytes discarded."""
    path = Path(path)
    size = path.stat().st_size
    offset = max(0, min(offset, size))
    with open(path, "rb+") as handle:
        handle.truncate(offset)
    return size - offset


def tear_store(root: Path, offset: Optional[int] = None,
               rng=None) -> tuple:
    """Kill-at-random-byte-offset: truncate the newest WAL segment
    under ``root`` at ``offset`` (or an ``rng``-chosen offset).
    Returns ``(segment_path, offset, discarded_bytes)``."""
    root = Path(root)
    segments = sorted(root.glob("wal-*.log"))
    if not segments:
        raise FileNotFoundError(f"no WAL segments under {root}")
    segment = segments[-1]
    size = segment.stat().st_size
    if offset is None:
        if rng is None:
            raise ValueError("pass offset or rng")
        offset = rng.randrange(size + 1) if size else 0
    discarded = tear_file(segment, offset)
    return segment, offset, discarded
