"""Allocation: Algorithm 1's rules and the section 4.1 balancing."""

import math
import random

import pytest

from repro.core.alloc import Allocator
from repro.core.disambiguator import DisambiguatorFactory, Sdis
from repro.core.node import MiniNode, slot_posid
from repro.core.path import PosID, ROOT
from repro.core.tree import TreedocTree
from repro.core.treedoc import Treedoc


def build(mode="sdis", balanced=True):
    doc = Treedoc(site=1, mode=mode, balanced=balanced)
    return doc


class TestAlgorithmOneRules:
    """Each rule exercised structurally, checking betweenness."""

    def _insert_between_posids(self, doc, left_index, atom):
        before = doc.posids()
        op = doc.insert(left_index, atom)
        after = doc.posids()
        assert after == sorted(after), "identifier order broken"
        return op

    def test_rule4_new_left_child_of_f(self):
        doc = build(balanced=False)
        doc.insert(0, "p")
        doc.insert(1, "f")  # p's right child region
        # inserting between p and f: p is f's ancestor -> rule 4
        doc.insert(1, "x")
        assert doc.text() == "pxf"
        ids = doc.posids()
        assert ids == sorted(ids)

    def test_rule5_rule7_strip_to_major_right_child(self):
        doc = build(balanced=False)
        doc.insert(0, "a")
        doc.insert(1, "b")
        # b's PosID routes through the major node, not through mini a:
        # rules 5/7 strip the disambiguator.
        id_b = doc.posid_at(1)
        assert id_b.elements[-2].dis is None or id_b.depth == 1

    def test_rule6_child_of_mini_between_siblings(self):
        # Two sites insert concurrently at the same place -> mini-
        # siblings; inserting between them descends under the first mini.
        a, b = Treedoc(site=1, mode="sdis"), Treedoc(site=2, mode="sdis")
        for op in [a.insert(0, "x"), a.insert(1, "y")]:
            b.apply(op)
        op_a = a.insert(1, "1")
        op_b = b.insert(1, "2")
        a.apply(op_b)
        b.apply(op_a)
        assert a.text() == b.text()
        # now insert between the two concurrent atoms at site a
        middle = a.text().index("1" if a.text().index("1") < a.text().index("2") else "2") + 1
        a.insert(middle, "m")
        assert a.text()[middle] == "m"
        ids = a.posids()
        assert ids == sorted(ids)
        a.check()

    def test_empty_document_first_insert(self):
        doc = build()
        op = doc.insert(0, "first")
        assert op.posid.depth == 1
        assert op.posid.elements[0].bit == 1


class TestBalancing:
    def test_append_growth_is_logarithmic(self):
        doc = build(balanced=True)
        n = 200
        for i in range(n):
            doc.insert(i, i)
        # With log-growth + slot reuse, appends yield O(log^2 n)-ish
        # depth rather than the naive chain's O(n).
        assert doc.tree.height <= 4 * math.ceil(math.log2(n)) ** 2
        doc.check()

    def test_naive_append_grows_linearly(self):
        doc = build(balanced=False)
        for i in range(50):
            doc.insert(i, i)
        assert doc.tree.height >= 25  # the paths grow with each atom

    def test_growth_reuses_empty_positions_in_infix_order(self):
        # Figure 5: after growing, consecutive appends consume the empty
        # positions of the grown subtree; cycle k holds 2^k - 1 atoms at
        # depth ~sum(k), so append depth is O(log^2 n) — not the naive
        # chain's O(n).
        doc = build(balanced=True)
        n = 64
        for i in range(n):
            doc.insert(i, i)
        depths = [doc.posid_at(i).depth for i in range(n)]
        assert max(depths) <= math.ceil(math.log2(n)) ** 2
        # and the growth subtrees really are being consumed: many atoms
        # share each grown region rather than chaining one-per-level.
        assert sorted(set(depths))[:3] == [1, 2, 3]
        doc.check()

    def test_insert_run_builds_minimal_subtree(self):
        doc = build(balanced=True)
        doc.insert_text(0, list(range(31)))
        # A 31-atom run fits a depth-5 complete subtree (+1 for the
        # run's anchor position).
        assert doc.tree.height <= 6
        assert doc.atoms() == list(range(31))
        doc.check()

    def test_run_betweenness(self):
        doc = build(balanced=True)
        doc.insert_text(0, ["a", "z"])
        doc.insert_text(1, ["b", "c", "d", "e"])
        assert doc.text() == "abcdez"
        doc.check()


class TestSdisSafety:
    def test_no_remint_of_tombstoned_identifier(self):
        # Section 3.3.2's scenario: delete then insert at the same place
        # from the same site must mint a fresh identifier.
        doc = build(mode="sdis", balanced=True)
        for i, c in enumerate("abc"):
            doc.insert(i, c)
        dead = doc.delete(1)
        op = doc.insert(1, "B")
        assert op.posid != dead.posid
        assert doc.text() == "aBc"
        doc.check()

    def test_repeated_delete_insert_cycles_stay_sound(self):
        doc = build(mode="sdis", balanced=True)
        doc.insert(0, "a")
        doc.insert(1, "b")
        seen = {doc.posid_at(0), doc.posid_at(1)}
        for cycle in range(20):
            doc.delete(1)
            op = doc.insert(1, f"b{cycle}")
            assert op.posid not in seen
            seen.add(op.posid)
        doc.check()


class TestAllocatorDirect:
    def test_place_between_returns_empty_mini(self):
        tree = TreedocTree()
        allocator = Allocator(tree)
        slot = allocator.place_between(None, None, Sdis(1))
        assert isinstance(slot, MiniNode)
        assert slot.state == "empty"

    def test_sequential_fill_is_sorted(self):
        tree = TreedocTree()
        allocator = Allocator(tree, balanced=True)
        factory = DisambiguatorFactory(site=1, mode="udis")
        previous = None
        for n in range(100):
            slot = allocator.place_between(previous, None, factory.fresh())
            tree.set_live(slot, n)
            previous = slot
        posids = tree.posids()
        assert posids == sorted(posids)
        assert tree.atoms() == list(range(100))
