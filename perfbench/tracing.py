"""Spans around calls into each layer's public entry points.

The traced run wraps the functions named in :data:`TARGETS` (module
functions are rebound in every ``repro`` module that imported them,
methods are replaced on their class) and records one span per call:
name, start, end, parent and, for spans of one edit, its
``(origin, sequence)``. Spans stay in memory and are written out when
the run ends.

Self time comes from :func:`attribute`: every instant of the traced
window goes to the deepest span open at that instant (the latest
started among equals), or to ``unattributed`` when none is open — so
per-layer self times plus ``unattributed`` sum to the window exactly,
whether spans nest cleanly or overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.stats import percentile

LAYERS = ("core", "codec", "wire", "replication", "storage", "server")

#: (span name, "module:qualname") — the public entry points traced.
#: The span name's prefix is its layer.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("core.mint", "repro.core.treedoc:Treedoc.insert_text"),
    ("core.mint", "repro.core.treedoc:Treedoc.delete_range"),
    ("core.apply", "repro.core.treedoc:Treedoc.apply_batch"),
    ("core.capture_state", "repro.core.treedoc:Treedoc.capture_state"),
    ("core.load_state", "repro.core.treedoc:Treedoc.load_state"),
    ("core.merge_segments", "repro.core.treedoc:Treedoc.merge_segments"),
    ("codec.encode_batch", "repro.core.encoding:encode_batch"),
    ("codec.decode_batch", "repro.core.encoding:decode_frame"),
    ("codec.encode_state", "repro.core.encoding:encode_state"),
    ("codec.decode_state", "repro.core.encoding:decode_state"),
    ("wire.encode", "repro.replication.wire:encode_wire"),
    ("wire.decode", "repro.replication.wire:decode_wire"),
    ("replication.edit", "repro.replication.site:ReplicaSite.insert_text"),
    ("replication.edit", "repro.replication.site:ReplicaSite.delete_range"),
    ("replication.checkpoint", "repro.replication.site:ReplicaSite.checkpoint"),
    ("replication.request_sync",
     "repro.replication.site:ReplicaSite.request_sync"),
    ("storage.append", "repro.storage.store:DurableStore.append"),
    ("storage.checkpoint", "repro.storage.store:DurableStore.write_checkpoint"),
    ("storage.recover", "repro.storage.store:DurableStore.recover"),
    ("server.segment_encode", "repro.server.framing:encode_segment"),
    ("server.deframe", "repro.server.framing:FrameReader.next_frame"),
)


class Tracer:
    """In-memory span recorder. Single-threaded: spans open and close
    on the event loop's thread, so a stack gives each its parent."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.keys: List[Optional[Tuple[int, int]]] = []
        self.tags: List[Optional[str]] = []
        #: Output sizes (bytes) of encoders, by span name.
        self.sizes: Dict[str, List[int]] = {}
        #: Calls per span name (counted while enabled).
        self.calls: Dict[str, int] = {}
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------------

    def begin(self, name: str, tag: Optional[str] = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.keys.append(None)
        self.tags.append(tag)
        self.calls[name] = self.calls.get(name, 0) + 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrapper discipline broken
            raise RuntimeError(f"span {self.names[index]} closed out of order")

    def set_key(self, origin: int, sequence: int) -> None:
        """Tag the outermost open span (the edit's root) with its id."""
        if self._stack:
            self.keys[self._stack[0]] = (origin, sequence)

    def set_tag(self, index: int, tag: str) -> None:
        self.tags[index] = tag

    def note_size(self, name: str, size: int) -> None:
        self.sizes.setdefault(name, []).append(size)

    def wrap(self, name: str, function: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``function`` with a span around each call made while the
        tracer is enabled; ``on_result(args, result)`` runs inside it."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                tracer.end(index)

        return traced

    # -- installation --------------------------------------------------------------

    def install(self, targets: Sequence[Tuple[str, str]] = TARGETS,
                hooks: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap every target. Module functions are rebound wherever a
        loaded ``repro`` module holds them; methods on their class."""
        hooks = hooks or {}
        for name, path in targets:
            module_name, qualname = path.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original,
                             self.wrap(name, original, hooks.get(path)))
                continue
            original = getattr(module, qualname)
            wrapper = self.wrap(name, original, hooks.get(path))
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if (namespace is None or not
                        getattr(loaded, "__name__", "").startswith("repro")):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._rebind(loaded, key, original, wrapper)

    def _rebind(self, owner: object, attr: str, original: object,
                wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- output --------------------------------------------------------------------

    def root_key(self, index: int) -> Optional[Tuple[int, int]]:
        while self.parents[index] >= 0:
            index = self.parents[index]
        return self.keys[index]

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, key, tag."""
        with open(path, "w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                key = self.root_key(index)
                out.write(json.dumps([
                    name, round(self.starts[index], 9),
                    round(self.ends[index], 9), self.parents[index],
                    list(key) if key else None, self.tags[index],
                ]) + "\n")


def depths(parents: Sequence[int]) -> List[int]:
    """Nesting depth of each span (parents precede their children)."""
    result: List[int] = []
    for parent in parents:
        result.append(0 if parent < 0 else result[parent] + 1)
    return result


def attribute(starts: Sequence[float], ends: Sequence[float],
              parents: Sequence[int], window: Tuple[float, float]
              ) -> Tuple[List[float], float]:
    """Exclusive (self) time of each span within ``window``, and the
    unattributed remainder: each instant goes to the deepest open span,
    ties to the one started last."""
    low, high = window
    depth = depths(parents)
    events: List[Tuple[float, int, int]] = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        start, end = max(start, low), min(end, high)
        if end > start:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    own = [0.0] * len(starts)
    active: Dict[int, None] = {}
    unattributed = 0.0
    cursor = low
    for moment, opening, index in events:
        if moment > cursor:
            span = cursor, moment
            if active:
                owner = max(active, key=lambda i: (depth[i], starts[i], i))
                own[owner] += span[1] - span[0]
            else:
                unattributed += span[1] - span[0]
            cursor = moment
        if opening:
            active[index] = None
        else:
            active.pop(index, None)
    if high > cursor:
        unattributed += high - cursor
    return own, unattributed


def layer_self_times(names: Sequence[str], own: Sequence[float]
                     ) -> Dict[str, float]:
    """Self time summed per layer (the span name's prefix)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, seconds in zip(names, own):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def tail_shares(names: Sequence[str], starts: Sequence[float],
                ends: Sequence[float], parents: Sequence[int],
                own: Sequence[float], root: str) -> Dict[str, float]:
    """Where the slowest top-level ``root`` spans spent their time.

    The spans at or beyond the p99 of their durations are the tail;
    each layer's share is the self time of
    every span beneath them (themselves included) in that layer, over
    the tail's summed durations. All zero when no ``root`` span ran.
    """
    tops: List[int] = []
    for index, parent in enumerate(parents):
        tops.append(index if parent < 0 else tops[parent])
    durations = {index: ends[index] - starts[index]
                 for index, name in enumerate(names)
                 if name == root and parents[index] < 0}
    if not durations:
        return {layer: 0.0 for layer in LAYERS}
    cut = percentile(list(durations.values()), 0.99)
    tail = {index for index, seconds in durations.items() if seconds >= cut}
    spent = layer_self_times(
        [name for index, name in enumerate(names) if tops[index] in tail],
        [seconds for index, seconds in enumerate(own) if tops[index] in tail],
    )
    total = sum(durations[index] for index in tail)
    return {layer: seconds / total for layer, seconds in spent.items()}
