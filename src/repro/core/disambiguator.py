"""Disambiguators: section 3.3 of the paper.

Concurrent inserts at the same tree position create sibling *mini-nodes*
inside one major node; the disambiguator is the unique, ordered tag that
tells them apart. The paper studies two designs:

- **UDIS** (:class:`Udis`): a ``(counter, siteID)`` pair, globally unique.
  Deleted leaves can be discarded immediately because a PosID can never be
  minted twice.
- **SDIS** (:class:`Sdis`): the site identifier alone. Smaller (no
  counter), but the same site can re-mint a PosID after a delete, so
  deleted nodes must be kept as tombstones.

Site identifiers are modelled on the paper's evaluation: 6 bytes (a MAC
address, or a short membership integer widened to the same field). UDIS
counters are 4 bytes (section 5, "We use 6 bytes for site identifiers in
both UDIS and SDIS, and 4 bytes for the UDIS counter").
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Tuple, Union

from repro.errors import EncodingError

#: Size of a site identifier on the wire and on disk, in bytes (section 5).
SITE_ID_BYTES = 6
#: Size of the UDIS per-site counter, in bytes (section 5).
COUNTER_BYTES = 4

SITE_ID_BITS = SITE_ID_BYTES * 8
COUNTER_BITS = COUNTER_BYTES * 8

#: A site identifier is a small non-negative integer (membership id) or a
#: 48-bit MAC-address-like value; both fit the 6-byte field.
SiteId = int


def validate_site_id(site: SiteId) -> SiteId:
    """Check that ``site`` fits the 6-byte site-identifier field."""
    if not isinstance(site, int) or isinstance(site, bool):
        raise EncodingError(f"site id must be an int, got {site!r}")
    if site < 0 or site >= 1 << SITE_ID_BITS:
        raise EncodingError(f"site id {site} does not fit in {SITE_ID_BYTES} bytes")
    return site


class Udis(tuple):
    """Unique disambiguator: ``(counter, siteID)``.

    Ordered by counter first, site second, exactly as in section 3.3.1:
    ``(c1, s1) < (c2, s2) iff c1 < c2 or (c1 = c2 and s1 < s2)``.

    A Udis *is* its total-order key: an immutable ``(counter, site)``
    tuple, so it compares, hashes and equals as that pair does, and
    ``key`` returns the tag itself. One 56-byte object per UDIS
    mini-node, with no separate key tuple beside it (DESIGN.md section
    7.1); comparisons, mini-node insertion sorts and packed PosID keys
    run as plain tuple operations.
    """

    __slots__ = ()

    def __new__(cls, counter: int, site: SiteId) -> "Udis":
        validate_site_id(site)
        if counter < 0 or counter >= 1 << COUNTER_BITS:
            raise EncodingError(
                f"UDIS counter {counter} does not fit in {COUNTER_BYTES} bytes"
            )
        return tuple.__new__(cls, (counter, site))

    counter = property(itemgetter(0), doc="The minting site's counter.")
    site = property(itemgetter(1), doc="The minting site's identifier.")

    @property
    def key(self) -> Tuple[int, int]:
        """The total-order key: the tag itself."""
        return self

    def __reduce__(self) -> tuple:
        # Copies and unpickled values are rebuilt (and re-validated)
        # through the constructor.
        return (Udis, (self[0], self[1]))

    def sort_key(self) -> tuple:
        """Total-order key; comparable across Udis and Sdis values."""
        # UDIS and SDIS are never mixed inside one document, but giving both
        # a common key shape keeps comparisons total if they ever meet.
        return self

    @property
    def size_bits(self) -> int:
        """Encoded size in bits (counter + site id)."""
        return COUNTER_BITS + SITE_ID_BITS

    def __repr__(self) -> str:
        return f"u{self[0]}:{self[1]}"


class Sdis:
    """Site disambiguator: the site identifier alone (section 3.3.2).

    Interned: ``Sdis(site)`` returns the one immutable instance for that
    site, whichever path builds it (minting, wire and disk decoders,
    run patterns, PosID parsing). An SDIS document holds one tag object
    per distinct site instead of one per mini-node, and identity equals
    equality. The intern table grows with the distinct sites a process
    has seen, one small entry each.
    """

    __slots__ = ("site", "key")

    _interned: Dict[SiteId, "Sdis"] = {}

    def __new__(cls, site: SiteId) -> "Sdis":
        if type(site) is int:
            tag = cls._interned.get(site)
            if tag is not None:
                return tag
        validate_site_id(site)
        tag = object.__new__(cls)
        object.__setattr__(tag, "site", site)
        object.__setattr__(tag, "key", (0, site))
        return cls._interned.setdefault(site, tag)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Sdis is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Sdis is immutable")

    def __reduce__(self) -> tuple:
        # Copies and unpickled values resolve to the interned instance.
        return (Sdis, (self.site,))

    def sort_key(self) -> tuple:
        """Total-order key; see :meth:`Udis.sort_key`."""
        return self.key

    @property
    def size_bits(self) -> int:
        """Encoded size in bits (site id only)."""
        return SITE_ID_BITS

    # Equality is identity (the inherited ``object.__eq__``): one
    # instance per site.

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: "Disambiguator") -> bool:
        return self.key < other.key

    def __le__(self, other: "Disambiguator") -> bool:
        return self.key <= other.key

    def __gt__(self, other: "Disambiguator") -> bool:
        return self.key > other.key

    def __ge__(self, other: "Disambiguator") -> bool:
        return self.key >= other.key

    def __repr__(self) -> str:
        return f"s{self.site}"


Disambiguator = Union[Udis, Sdis]


class DisambiguatorFactory:
    """Mints fresh disambiguators for one site.

    A Treedoc replica owns one factory; its ``mode`` selects the UDIS or
    SDIS design for the whole document (the two are never mixed).
    """

    UDIS = "udis"
    SDIS = "sdis"

    def __init__(self, site: SiteId, mode: str = UDIS) -> None:
        validate_site_id(site)
        if mode not in (self.UDIS, self.SDIS):
            raise ValueError(f"unknown disambiguator mode {mode!r}")
        self.site = site
        self.mode = mode
        self._counter = 0
        # SDIS disambiguators are all identical for one site: the
        # interned instance.
        self._sdis = Sdis(site) if mode == self.SDIS else None

    def fresh(self) -> Disambiguator:
        """Return the next disambiguator for this site."""
        if self.mode == self.UDIS:
            dis = Udis(self._counter, self.site)
            self._counter += 1
            return dis
        return self._sdis

    @property
    def counter(self) -> int:
        """Current UDIS counter value (number of UDIS minted so far)."""
        return self._counter

    def restore_counter(self, value: int) -> None:
        """Advance the UDIS counter to at least ``value`` (durable
        recovery only). The counter is what makes a UDIS globally
        unique; a restarted site must never re-mint a (counter, site)
        pair from before its crash, so the counter is monotonic — this
        can only move it forward. A no-op for SDIS (site-only tags
        carry no counter: re-minting is what the tombstones absorb)."""
        if value > self._counter:
            self._counter = value
