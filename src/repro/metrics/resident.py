"""Resident bytes of an in-memory structure, by type.

One generic gc-reachability walk: every object reachable from ``root``
through :func:`gc.get_referents` is counted once at its
:func:`sys.getsizeof` size. Types (classes) and ``None`` are not
counted, and neither is anything whose ``id`` is in ``exclude_ids`` —
the benchmarks pass the atom payloads there, since every storage form
shares them. The census answers "which containers is this tree made
of"; :func:`resident_bytes` is its total.

The module imports only the standard library, so a benchmark can load
it by file path to measure another checkout's tree with the same walk.
"""

from __future__ import annotations

import gc
import sys
from typing import Collection, Dict, Tuple


def resident_census(root: object, exclude_ids: Collection[int] = ()
                    ) -> Dict[str, Tuple[int, int]]:
    """``{type name: (objects, bytes)}`` over everything reachable
    from ``root``, each object once."""
    census: Dict[str, Tuple[int, int]] = {}
    seen = set(exclude_ids)
    stack = [root]
    while stack:
        obj = stack.pop()
        key = id(obj)
        if key in seen:
            continue
        seen.add(key)
        if obj is None or isinstance(obj, type):
            continue
        name = type(obj).__name__
        count, size = census.get(name, (0, 0))
        census[name] = (count + 1, size + sys.getsizeof(obj))
        stack.extend(gc.get_referents(obj))
    return census


def resident_bytes(root: object, exclude_ids: Collection[int] = ()) -> int:
    """Total bytes of :func:`resident_census`."""
    return sum(size for _, size in resident_census(root, exclude_ids).values())
