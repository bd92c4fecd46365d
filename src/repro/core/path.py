"""PosID paths: the dense identifier space of Treedoc (section 3.1).

A PosID is a path in the *extended binary tree*: a sequence of elements,
each a branch bit (0 = left, 1 = right) optionally tagged with a
disambiguator. A disambiguator appears on the last element (naming the
target mini-node) and on any interior element whose *next* element
descends through that mini-node's own children rather than through the
major node's children.

Total order
-----------

The order is the infix walk the paper describes: at every major node,

    left child  <  mini-nodes (in disambiguator order, each with its own
    left subtree, atom, right subtree)  <  right child.

Element-wise this means comparing two paths position by position:

- different branch bits: the bit decides (0 < 1);
- same bit, both disambiguated: the disambiguators decide (equal
  disambiguators: keep walking);
- same bit, both plain: keep walking;
- same bit, exactly one disambiguated: the plain path routes through the
  *major* node, so whether it falls before or after the mini-node's
  subtree depends on where it goes next: if the plain path next descends
  left (or ends), it precedes everything under the mini-node; if it next
  descends right, it follows everything under the mini-node.

If one path is a strict prefix of the other, the longer path's next bit
decides (a left descent precedes the ancestor atom, a right descent
follows it).

The paper's formal comparison (section 3.1) orders same-bit plain vs
disambiguated elements unconditionally (``0 < (0:d)``, ``(1:d) < 1``);
read literally that contradicts both Algorithm 1 (rules 5/7 strip the
disambiguator of ``PosID_p`` yet must produce an identifier *after*
``p``) and the stated infix walk. The "next bit decides" rule above is
the unique refinement under which every rule of Algorithm 1 preserves
betweenness; property tests in ``tests/core/test_path_properties.py``
machine-check totality and betweenness. See DESIGN.md section 3.1.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.disambiguator import Disambiguator, Sdis, Udis
from repro.errors import PathError

# Branch-bit constants, for readability at call sites.
LEFT = 0
RIGHT = 1


class PathElement:
    """One step of a PosID path: a branch bit plus optional disambiguator.

    A ``__slots__`` value class: remote ``materialize``/``lookup`` walk
    one element per tree level, so element construction and attribute
    access sit on the replay hot path and per-replica memory scales with
    the number of stored elements.
    """

    __slots__ = ("bit", "dis")

    def __init__(self, bit: int, dis: Optional[Disambiguator] = None) -> None:
        if bit != LEFT and bit != RIGHT:
            raise PathError(f"branch bit must be 0 or 1, got {bit!r}")
        self.bit = bit
        self.dis = dis

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathElement):
            return NotImplemented
        return self.bit == other.bit and self.dis == other.dis

    def __hash__(self) -> int:
        return hash((self.bit, self.dis))

    def plain(self) -> "PathElement":
        """This element with the disambiguator removed."""
        if self.dis is None:
            return self
        return PLAIN[self.bit]

    @property
    def size_bits(self) -> int:
        """Encoded size: branch bit + presence flag + disambiguator."""
        dis_bits = self.dis.size_bits if self.dis is not None else 0
        return 2 + dis_bits

    def __repr__(self) -> str:
        if self.dis is None:
            return str(self.bit)
        return f"({self.bit}:{self.dis!r})"


#: The two plain elements, shared: a plain element carries nothing but
#: its bit and is never mutated, so identifiers derived from the tree
#: reuse these instead of allocating one element per level.
PLAIN = (PathElement(LEFT), PathElement(RIGHT))


# Comparison outcome constants.
_LT, _EQ, _GT = -1, 0, 1


def _element_span(element: PathElement, next_bit: Optional[int]) -> tuple:
    """Rank of an element among same-position alternatives.

    Returns a tuple ``(rank, dis_key)`` ordered so that, within one branch
    bit: plain-going-left-or-ending < every disambiguated element (by
    disambiguator) < plain-going-right. ``next_bit`` is the following
    element's branch bit, or None when this element ends the path.
    """
    if element.dis is not None:
        return (1, element.dis.sort_key())
    if next_bit == RIGHT:
        return (2, ())
    return (0, ())


def compare_posids(a: "PosID", b: "PosID") -> int:
    """Three-way comparison of two PosIDs; total order (see module doc).

    Compares the packed :meth:`PosID.sort_key` flat-integer keys — one
    C-level tuple comparison instead of a Python loop over elements.
    :func:`compare_posids_walk` is the element-by-element reference
    implementation; the property tests machine-check their equivalence.
    """
    ka, kb = a.sort_key(), b.sort_key()
    if ka == kb:
        return _EQ
    return _LT if ka < kb else _GT


def compare_posids_walk(a: "PosID", b: "PosID") -> int:
    """Element-by-element reference comparison (see module doc)."""
    ea, eb = a.elements, b.elements
    la, lb = len(ea), len(eb)
    common = min(la, lb)
    for i in range(common):
        xa, xb = ea[i], eb[i]
        if xa.bit != xb.bit:
            return _LT if xa.bit < xb.bit else _GT
        if xa.dis is None and xb.dis is None:
            continue
        if xa.dis is not None and xb.dis is not None:
            ka, kb = xa.dis.sort_key(), xb.dis.sort_key()
            if ka == kb:
                continue
            return _LT if ka < kb else _GT
        # Exactly one side is disambiguated: rank by where each goes next.
        na = ea[i + 1].bit if i + 1 < la else None
        nb = eb[i + 1].bit if i + 1 < lb else None
        sa, sb = _element_span(xa, na), _element_span(xb, nb)
        if sa == sb:  # pragma: no cover - spans with one plain side differ
            continue
        return _LT if sa < sb else _GT
    if la == lb:
        return _EQ
    # One path is a prefix of the other: the continuation's bit decides.
    if la < lb:
        return _LT if eb[common].bit == RIGHT else _GT
    return _GT if ea[common].bit == RIGHT else _LT


class PosID:
    """An immutable position identifier: a sequence of path elements.

    PosIDs are totally ordered (``<`` etc.), hashable, and report their
    encoded size in bits for the overhead metrics of section 5.

    Ordering compares *packed keys* (:meth:`sort_key`): a flat tuple of
    small integers whose lexicographic order equals the infix order
    above, computed once per identifier and cached.
    """

    __slots__ = ("_elements", "_hash", "_key")

    def __init__(self, elements: Iterable[PathElement] = ()) -> None:
        elems = tuple(elements)
        for elem in elems:
            if not isinstance(elem, PathElement):
                raise PathError(f"not a PathElement: {elem!r}")
        self._elements: Tuple[PathElement, ...] = elems
        self._hash: Optional[int] = None
        self._key: Optional[Tuple[int, ...]] = None

    @classmethod
    def _of(cls, elements: Tuple[PathElement, ...]) -> "PosID":
        """A PosID over an element tuple the caller has already checked
        (one derived from an existing PosID's elements): skips the
        per-element type check of the public constructor, which
        dominates identifier derivation on the edit path."""
        posid = object.__new__(cls)
        posid._elements = elements
        posid._hash = None
        posid._key = None
        return posid

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_bits(cls, bits: Sequence[int],
                  final_dis: Optional[Disambiguator] = None) -> "PosID":
        """Build a PosID from plain branch bits, optionally disambiguating
        the final element (the common shape produced by Algorithm 1)."""
        elems = [PathElement(b) for b in bits]
        if final_dis is not None:
            if not elems:
                raise PathError("cannot disambiguate an empty path")
            elems[-1] = PathElement(elems[-1].bit, final_dis)
        return cls(elems)

    def child(self, bit: int, dis: Optional[Disambiguator] = None) -> "PosID":
        """This path extended by one element."""
        return PosID._of(self._elements + (PathElement(bit, dis),))

    def with_last_plain(self) -> "PosID":
        """This path with the final element's disambiguator stripped
        (the ``c1 … pn`` rewriting used by rules 4, 5 and 7)."""
        if not self._elements:
            raise PathError("empty path has no last element")
        return PosID._of(self._elements[:-1] + (self._elements[-1].plain(),))

    # -- basic accessors -----------------------------------------------------

    @property
    def elements(self) -> Tuple[PathElement, ...]:
        """The path elements, root-most first."""
        return self._elements

    @property
    def depth(self) -> int:
        """Number of elements (tree depth of the identified node)."""
        return len(self._elements)

    @property
    def last(self) -> PathElement:
        """The final element."""
        if not self._elements:
            raise PathError("empty path has no last element")
        return self._elements[-1]

    @property
    def parent(self) -> "PosID":
        """The path with the final element removed."""
        if not self._elements:
            raise PathError("empty path has no parent")
        return PosID._of(self._elements[:-1])

    def bits(self) -> Tuple[int, ...]:
        """The branch bits only (the binary-tree skeleton position)."""
        return tuple(e.bit for e in self._elements)

    @property
    def size_bits(self) -> int:
        """Encoded size in bits: per element, a branch bit plus a
        disambiguator-presence flag, plus the disambiguator payloads."""
        return sum(e.size_bits for e in self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[PathElement]:
        return iter(self._elements)

    def __getitem__(self, index):
        return self._elements[index]

    # -- structural relations (section 3.1 definitions) ----------------------

    def is_prefix_of(self, other: "PosID") -> bool:
        """Strict structural prefix: every element equal, self shorter."""
        if len(self) >= len(other):
            return False
        return self._elements == other._elements[: len(self)]

    def is_ancestor_of(self, other: "PosID") -> bool:
        """``self /+ other``: self routes to a node on other's path.

        Matches the paper's ancestry: the final element of ``self`` may be
        disambiguated while ``other`` routes through the corresponding
        major node (plain element), or vice versa; interior elements must
        agree exactly (a different interior disambiguator is a different
        subtree).
        """
        n = len(self)
        if n >= len(other):
            return False
        if self._elements[: n - 1] != other._elements[: n - 1]:
            return False
        mine, theirs = self._elements[n - 1], other._elements[n - 1]
        if mine.bit != theirs.bit:
            return False
        if mine.dis is None or theirs.dis is None:
            return True
        return mine.dis == theirs.dis

    def is_mini_sibling_of(self, other: "PosID") -> bool:
        """True when both paths name mini-nodes of the same major node."""
        if len(self) != len(other) or not self._elements:
            return False
        if self._elements[:-1] != other._elements[:-1]:
            return False
        mine, theirs = self._elements[-1], other._elements[-1]
        return (
            mine.dis is not None
            and theirs.dis is not None
            and mine.bit == theirs.bit
            and mine.dis != theirs.dis
        )

    # -- ordering ------------------------------------------------------------

    def sort_key(self) -> Tuple[int, ...]:
        """The packed compare key: a flat tuple of small integers whose
        lexicographic order equals the infix identifier order.

        Encoding, per element: ``2*bit`` followed by a *span rank* —
        ``0`` for a plain element continuing left (or ending), ``1``
        for a disambiguated element (followed by the disambiguator's
        ``(counter, site)`` ints), ``2`` for a plain element continuing
        right — and a terminal ``1`` closing the path. The terminal
        sorts between left-continuations (first token ``0``) and
        right-continuations (first token ``2``), which realizes the
        "next bit decides" prefix rule; the span ranks realize the
        plain-vs-disambiguated refinement (see the module doc and
        DESIGN.md section 3.1). Streams stay token-aligned until the
        first difference, so flat packing is safe.
        """
        key = self._key
        if key is None:
            parts: List[int] = []
            elems = self._elements
            n = len(elems)
            for i, element in enumerate(elems):
                parts.append(element.bit << 1)
                dis = element.dis
                if dis is not None:
                    parts.append(1)
                    parts.extend(dis.key)
                elif i + 1 < n and elems[i + 1].bit == RIGHT:
                    parts.append(2)
                else:
                    parts.append(0)
            parts.append(1)
            key = tuple(parts)
            self._key = key
        return key

    def __lt__(self, other: "PosID") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "PosID") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "PosID") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "PosID") -> bool:
        return self.sort_key() >= other.sort_key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PosID):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.sort_key())
        return self._hash

    # -- debugging -----------------------------------------------------------

    def __repr__(self) -> str:
        inner = " ".join(repr(e) for e in self._elements)
        return f"[{inner}]"


#: The path to the root major node (the empty bitstring of section 3.1).
ROOT = PosID()


def parse_posid(text: str) -> PosID:
    """Parse the ``repr`` format back into a PosID (testing aid).

    Accepts e.g. ``"[1 0 (0:s3) (1:u2:7)]"`` where ``s<site>`` is an SDIS
    and ``u<counter>:<site>`` a UDIS disambiguator.
    """
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise PathError(f"malformed PosID literal: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ROOT
    elements = []
    for token in body.split():
        if token in ("0", "1"):
            elements.append(PathElement(int(token)))
            continue
        if not (token.startswith("(") and token.endswith(")")):
            raise PathError(f"malformed path element: {token!r}")
        bit_text, _, dis_text = token[1:-1].partition(":")
        if bit_text not in ("0", "1") or not dis_text:
            raise PathError(f"malformed path element: {token!r}")
        if dis_text.startswith("u"):
            counter_text, _, site_text = dis_text[1:].partition(":")
            dis: Disambiguator = Udis(int(counter_text), int(site_text))
        elif dis_text.startswith("s"):
            dis = Sdis(int(dis_text[1:]))
        else:
            raise PathError(f"malformed disambiguator: {dis_text!r}")
        elements.append(PathElement(int(bit_text), dis))
    return PosID(elements)
