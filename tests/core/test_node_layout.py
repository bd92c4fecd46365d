"""The in-memory node layout (DESIGN.md section 7.1, "Node layout").

Seven invariants keep the tree lean without changing a serialised byte:

- **flat parent links** — every position node and array leaf names its
  container in ``parent`` and its branch in ``side``, and
  ``parent.child(side)`` is the node itself (no ``(container, bit)``
  tuple per node);
- **sorted mini collections** — the mini-nodes of a node, read through
  ``mini_nodes()``, are strictly sorted by disambiguator key, and a
  node without minis holds the shared ``()``;
- **interned SDIS tags** — every ``Sdis`` reachable from the tree is the
  one instance for its site;
- **derived identifiers** — no node stores a PosID: an identifier is
  derived from the parent links when asked for, so no ``PosID`` is
  reachable from the tree, whatever was minted or read before;
- **a lone mini-node is stored bare** — ``minis`` holds the one
  ``MiniNode`` itself, and a tuple only for two or more;
- **a Udis is its own key** — no ``(counter, site)`` tuple beside it;
- **slot state lives in the atom field** — no slot has a state field:
  ``atom`` holds the atom, or ``NO_ATOM`` / ``DEAD_ATOM``.

:func:`check_layout` asserts all seven; the state-frame property test
runs it after every step of its edit histories, together with
:func:`check_identifiers`, which pins every derived identifier to its
slot. The census tests count objects, never bytes, so they hold on
every CPython version.
"""

from __future__ import annotations

import ast
import copy
import gc
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.core import disk, encoding, flatten
from repro.core.disambiguator import Sdis, Udis
from repro.core.node import (
    DEAD_ATOM,
    EMPTY,
    LIVE,
    NO_ATOM,
    TOMBSTONE,
    ArrayLeaf,
    MiniNode,
    PathMemo,
    PosNode,
    iter_subtree_entries,
    parent_host,
    slot_depth,
    slot_host,
    slot_posid,
    slot_posids,
    subtree_height,
)
from repro.core.path import ROOT
from repro.core.treedoc import Treedoc
from repro.errors import TreeError
from repro.metrics import resident_census
from repro.replication.cluster import Cluster
from repro.server.admin import identity_digest

_NO_MINIS = ()


def _check_child(child, container, side: int, tree) -> None:
    assert child.parent is container, "child does not point back"
    assert child.side == side, "child names the wrong branch"
    assert container.child(side) is child
    if isinstance(child, ArrayLeaf):
        assert isinstance(container, PosNode), "leaf under a mini-node"
        assert child.tree is tree, "leaf owned by another tree"


_MARK = type(NO_ATOM)


def _check_slot(slot) -> None:
    """A slot's ``atom`` field holds an atom or one of the two shared
    marks, and its state is read off that field."""
    atom = slot.atom
    assert atom is not None, "a slot's atom field holds None"
    if type(atom) is _MARK:
        assert atom is NO_ATOM or atom is DEAD_ATOM, "a third slot mark"
        assert slot.state == (EMPTY if atom is NO_ATOM else TOMBSTONE)
    else:
        assert slot.state == LIVE


def check_layout(tree) -> None:
    """Assert the lean-layout invariants over every node of ``tree``."""
    assert "cached_posid" not in PosNode.__slots__
    for cls in (PosNode, MiniNode):
        assert not any("state" in name for name in cls.__slots__), \
            f"{cls.__name__} has a state field"
    assert "PosID" not in resident_census(tree), "a PosID is stored"
    root = tree.root
    assert root.parent is None
    stack = [root]
    while stack:
        node = stack.pop()
        _check_slot(node)
        minis = node.minis
        if type(minis) is tuple:
            assert len(minis) != 1, "a lone mini-node wrapped in a tuple"
            if not minis:
                assert minis is _NO_MINIS, "empty minis not the shared ()"
        else:
            assert type(minis) is MiniNode, \
                f"minis is a {type(minis).__name__}"
        assert node.mini_nodes() == (
            (minis,) if type(minis) is MiniNode else minis)
        keys = [mini.dis.key for mini in node.mini_nodes()]
        assert all(a < b for a, b in zip(keys, keys[1:])), \
            "minis not strictly sorted by disambiguator"
        for mini in node.mini_nodes():
            assert mini.host is node
            _check_slot(mini)
            dis = mini.dis
            if isinstance(dis, Sdis):
                assert dis is Sdis(dis.site), "Sdis not interned"
            else:
                assert type(dis) is Udis
                assert dis.key is dis, "a Udis with a separate key"
            for side, child in enumerate((mini.left, mini.right)):
                if child is not None:
                    assert isinstance(child, PosNode)
                    _check_child(child, mini, side, tree)
                    stack.append(child)
        for side, child in enumerate((node.left, node.right)):
            if child is not None:
                _check_child(child, node, side, tree)
                if isinstance(child, PosNode):
                    stack.append(child)


def check_identifiers(tree) -> None:
    """Every used identifier, derived from its slot, looks up that very
    slot, and the batch listing ``tree.posids()`` equals a fresh
    per-slot derivation (collapsed regions answer from their implied
    paths either way)."""
    reference = []
    for entry in iter_subtree_entries(tree.root):
        if isinstance(entry, ArrayLeaf):
            reference.extend(entry.posids())
        elif entry.state != EMPTY:
            posid = slot_posid(entry)
            assert tree.lookup(posid) is entry, f"{posid!r} names another slot"
            if entry.state == LIVE:
                reference.append(posid)
    assert tree.posids() == reference


GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def disk_reload(tree):
    """``tree`` saved and loaded as a disk image."""
    return disk.load(disk.save(tree))


def legacy_disk_trees():
    """The checked-in v1 (SDIS mini-nodes from two sites, tombstones)
    and v2 (array leaves) disk images, loaded: no writer for those
    formats remains, but the reader must still build lean trees."""
    return [disk.load(disk.image_from_bytes((GOLDEN / name).read_bytes()))
            for name in ("disk_v1.bin", "disk_v2.bin")]


def sdis_doc() -> Treedoc:
    """A fixed SDIS document: three writing sites, mini-nodes,
    tombstones, a flattened and collapsed body and tree-form edits."""
    doc = Treedoc(site=1, mode="sdis")
    doc.insert_text(0, [f"a{i}" for i in range(64)])
    doc.apply_flatten(doc.make_flatten(ROOT))
    doc.delete_range(10, 14)
    for site, index, atoms in ((2, 3, ["x", "y"]), (3, 8, ["w"]),
                               (2, 40, list("tail"))):
        other = Treedoc(site=site, mode="sdis")
        other.load_state(doc.capture_state())
        doc.apply_batch(other.insert_text(index, atoms))
    doc.insert_text(5, ["v"])
    for _ in range(3):
        doc.note_revision()
    doc.collapse_cold(min_age=1, min_atoms=4)
    return doc


def udis_doc() -> Treedoc:
    """A fixed UDIS document: four writing sites, hosts with one
    mini-node and a host with two (concurrent inserts at one place),
    and a discarded atom."""
    doc = Treedoc(site=1, mode="udis")
    doc.insert_text(0, [f"a{i}" for i in range(24)])
    base = doc.capture_state()
    for site, index, atoms in ((2, 3, ["x", "y"]), (3, 3, ["w"]),
                               (4, 12, list("tail"))):
        other = Treedoc(site=site, mode="udis")
        other.load_state(base)
        doc.apply_batch(other.insert_text(index, atoms))
    doc.insert_text(5, ["v"])
    doc.delete_range(8, 10)
    return doc


def _reachable(root):
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(obj, type):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


class TestLayout:
    def test_fixed_document_holds_the_invariants(self):
        doc = sdis_doc()
        assert doc.array_leaf_count
        assert any(node.minis for node in doc.tree.root.iter_nodes())
        check_layout(doc.tree)

    def test_minis_rebuild_as_sorted_tuples(self):
        node = PosNode()
        first = node.get_or_create_mini(Sdis(5))
        assert node.minis is first, "a lone mini-node is stored bare"
        assert node.mini_nodes() == (first,)
        for site in (1, 3):
            node.get_or_create_mini(Sdis(site))
        assert type(node.minis) is tuple
        assert [mini.dis.site for mini in node.mini_nodes()] == [1, 3, 5]
        assert node.get_or_create_mini(Sdis(3)) is node.mini_nodes()[1]
        assert node.find_mini(Sdis(5)) is first
        assert node.find_mini(Sdis(4)) is None
        node.remove_mini(node.mini_nodes()[0])
        node.remove_mini(first)
        assert type(node.minis) is MiniNode, "back to one: stored bare"
        assert node.minis.dis is Sdis(3)
        node.remove_mini(node.minis)
        assert node.minis is _NO_MINIS
        assert node.mini_nodes() is _NO_MINIS
        for counter in (2, 0, 1):
            node.get_or_create_mini(Udis(counter, 4))
        assert [mini.dis for mini in node.mini_nodes()] == [
            Udis(0, 4), Udis(1, 4), Udis(2, 4)]
        assert node.find_mini(Udis(1, 4)) is node.mini_nodes()[1]

    def test_every_path_returns_the_interned_sdis(self):
        doc = sdis_doc()
        reloads = [disk_reload(doc.tree)]
        for leaf in doc.tree.array_leaves():
            if leaf.dead:
                leaf.explode()
        reloads.append(disk_reload(doc.tree))
        for tree in reloads:
            assert tree.atoms() == doc.atoms()
            check_layout(tree)
        for tree in legacy_disk_trees():
            check_layout(tree)
        receiver = Treedoc(site=9, mode="sdis")
        receiver.load_state(doc.capture_state())
        check_layout(receiver.tree)
        assert Sdis(4) is Sdis(4) == Sdis(4)
        assert Sdis(4) != Sdis(5)


class TestDerivedIdentifiers:
    def test_reads_leave_no_identifier_in_the_tree(self):
        cluster = Cluster(2, mode="sdis", seed=3)
        a, b = cluster[1], cluster[2]
        a.insert_text(0, list("derived, never stored"))
        cluster.settle()
        b.insert_text(7, list(" on demand"))
        a.delete_range(2, 5)
        cluster.settle()
        cluster.assert_converged(identities=True)
        for site in (a, b):
            assert identity_digest(site) == identity_digest(a)
            check_layout(site.doc.tree)
            posids = site.doc.posids()
            check_layout(site.doc.tree)
            assert [site.doc.posid_at(index)
                    for index in range(len(site.doc))] == posids
            check_layout(site.doc.tree)
            check_identifiers(site.doc.tree)
        doc = sdis_doc()
        check_identifiers(doc.tree)
        check_layout(doc.tree)

    def test_batch_ops_carry_per_slot_identifiers(self):
        doc = sdis_doc()
        batch = doc.insert_text(20, [f"n{i}" for i in range(9)])
        assert [op.posid for op in batch.ops] == [
            slot_posid(doc.tree.live_slot_at(index))
            for index in range(20, 29)]
        before = [doc.posid_at(index) for index in range(3, 12)]
        assert [op.posid for op in doc.delete_range(3, 12).ops] == before
        check_layout(doc.tree)

    def test_a_mini_node_at_the_root_has_no_identifier(self):
        root = PosNode()
        mini = root.get_or_create_mini(Sdis(1))
        with pytest.raises(TreeError):
            slot_posid(mini)
        with pytest.raises(TreeError):
            PathMemo().posid(mini)
        assert slot_posids([root]) == [ROOT]


class TestCensus:
    def test_no_parent_tuples_and_one_sdis_per_site(self):
        doc = sdis_doc()
        sites = {mini.dis.site for node in doc.tree.root.iter_nodes()
                 for mini in node.mini_nodes()}
        assert sites == {1, 2, 3}
        census = resident_census(doc.tree)
        assert census["Sdis"][0] == len(sites)
        nodes = census["PosNode"][0] + census.get("ArrayLeaf", (0, 0))[0]
        assert nodes > 0 and census["MiniNode"][0] > len(sites)
        containers = (PosNode, MiniNode)
        parent_tuples = [
            obj for obj in _reachable(doc.tree)
            if type(obj) is tuple and len(obj) == 2
            and isinstance(obj[0], containers)
        ]
        assert parent_tuples == []

    def test_udis_slots_hold_no_side_containers(self):
        doc = udis_doc()
        check_layout(doc.tree)
        hosts = [node for node in doc.tree.root.iter_nodes() if node.minis]
        counts = sorted(len(node.mini_nodes()) for node in hosts)
        assert counts[0] == 1 and counts[-1] >= 2, counts
        reachable = list(_reachable(doc.tree))
        tags = {tuple(obj) for obj in reachable if type(obj) is Udis}
        census = resident_census(doc.tree)
        assert census["Udis"][0] == len(tags) == sum(counts)
        # A lone mini-node is stored bare: no one-element tuple holds one.
        assert [obj for obj in reachable if type(obj) is tuple
                and len(obj) == 1 and type(obj[0]) is MiniNode] == []
        # A Udis is its own key: no (counter, site) tuple beside it.
        assert [obj for obj in reachable if type(obj) is tuple
                and obj in tags] == []
        # Slot state lives in the atom field: the only marks are the two
        # shared ones, whatever the number of empty slots.
        assert census[type(NO_ATOM).__name__][0] <= 2
        assert any(node.atom is NO_ATOM for node in hosts)


class TestStorageCounts:
    def test_counts_match_the_resident_census(self):
        for doc in (sdis_doc(), udis_doc()):
            counts = doc.tree.storage_counts()
            census = resident_census(doc.tree)
            leaves = doc.tree.array_leaves()
            assert counts == {
                "position_nodes": census["PosNode"][0],
                "mini_nodes": census["MiniNode"][0],
                "array_leaves": census.get("ArrayLeaf", (0, 0))[0],
                "leaf_atoms": sum(len(leaf.atoms) for leaf in leaves),
            }
            assert counts["array_leaves"] == len(leaves)
        assert sdis_doc().tree.storage_counts()["leaf_atoms"] > 0


class TestUdisIsItsOwnKey:
    """A Udis behaves as its old separate ``(counter, site)`` key did:
    the same order, hash and equality, through ``copy`` and ``pickle``."""

    pairs = st.tuples(st.integers(0, (1 << 32) - 1),
                      st.integers(0, (1 << 48) - 1))

    @given(pairs, pairs)
    def test_order_hash_and_equality_match_the_pair(self, a, b):
        ua, ub = Udis(*a), Udis(*b)
        assert (ua.counter, ua.site) == a and ua.key is ua
        assert ua.sort_key() == a and hash(ua) == hash(a)
        assert (ua == ub, ua != ub) == (a == b, a != b)
        assert (ua < ub, ua <= ub, ua > ub, ua >= ub) == (
            a < b, a <= b, a > b, a >= b)
        for clone in (copy.copy(ua), copy.deepcopy(ua),
                      pickle.loads(pickle.dumps(ua))):
            assert type(clone) is Udis
            assert clone == ua and hash(clone) == hash(ua)
            assert repr(clone) == f"u{a[0]}:{a[1]}"

    @given(pairs, st.integers(0, (1 << 48) - 1))
    def test_udis_and_sdis_keys_still_compare(self, a, site):
        ua, tag = Udis(*a), Sdis(site)
        assert ua != tag and tag != ua
        assert (ua < tag) == (a < tag.key)
        assert (tag < ua) == (tag.key < a)

    def test_udis_is_immutable(self):
        tag = Udis(3, 4)
        with pytest.raises(AttributeError):
            tag.counter = 5
        with pytest.raises(AttributeError):
            tag.extra = 1


def partial_doc() -> Treedoc:
    """A flattened body of 600 atoms collapsed into two large leaves,
    one of them partially exploded by an edit in its middle."""
    doc = Treedoc(site=1, mode="sdis")
    doc.insert_text(0, [f"p{i}" for i in range(600)])
    doc.apply_flatten(doc.make_flatten(ROOT))
    for _ in range(3):
        doc.note_revision()
    doc.collapse_cold(min_age=1, min_atoms=4)
    doc.insert_text(150, ["mid"])
    doc.delete_range(400, 403)
    assert doc.tree.partial_explodes and doc.array_leaf_count
    return doc


def deep_doc() -> Treedoc:
    """A chain deeper than the recursion limit, ending in the edits of
    :func:`udis_doc` (a mini-node with a position node under it)."""
    doc = Treedoc(site=1, mode="udis", balanced=False)
    length = sys.getrecursionlimit() + 100
    doc.insert_text(0, [f"c{i}" for i in range(length)])
    base = doc.capture_state()
    tail = length - 24
    for site, index, atoms in ((2, 3, ["x", "y"]), (3, 3, ["w"]),
                               (4, 12, list("tail"))):
        other = Treedoc(site=site, mode="udis")
        other.load_state(base)
        doc.apply_batch(other.insert_text(tail + index, atoms))
    doc.insert_text(tail + 5, ["v"])
    assert doc.tree.height > sys.getrecursionlimit()
    return doc


def walk_docs():
    """Mixed documents: mini-nodes, tombstones, array leaves, partial
    explodes, and a chain deeper than the recursion limit."""
    return [sdis_doc(), udis_doc(), partial_doc(), deep_doc()]


def reference_height(tree) -> int:
    """The deepest identifier level, from each entry's own path length."""
    return max(
        slot_depth(entry.parent) + entry.implicit_depth
        if type(entry) is ArrayLeaf else slot_depth(entry)
        for entry in iter_subtree_entries(tree.root))


class TestWalks:
    """The two walks of ``core/node.py`` and the height function beside
    them, which every general traversal of the layout goes through."""

    def test_iter_slots_is_the_entry_walk_without_leaves(self):
        for doc in walk_docs():
            entries = list(iter_subtree_entries(doc.tree.root))
            leaves = [i for i, e in enumerate(entries)
                      if type(e) is ArrayLeaf]
            slots = []
            if leaves:
                with pytest.raises(TreeError):
                    slots.extend(doc.tree.root.iter_slots())
                assert slots == entries[:leaves[0]]
                for leaf in doc.tree.array_leaves():
                    leaf.explode()
                entries = list(iter_subtree_entries(doc.tree.root))
            assert list(doc.tree.root.iter_slots()) == entries
            assert all(type(e) is not ArrayLeaf for e in entries)

    def test_iter_nodes_reaches_the_nodes_under_mini_nodes(self):
        under_minis = 0
        for doc in walk_docs():
            nodes = list(doc.tree.root.iter_nodes())
            order = {id(node): index for index, node in enumerate(nodes)}
            assert len(order) == len(nodes), "a node yielded twice"
            hosts = {id(slot_host(entry)): slot_host(entry)
                     for entry in iter_subtree_entries(doc.tree.root)
                     if type(entry) is not ArrayLeaf}
            assert order.keys() == hosts.keys()
            for node in nodes[1:]:
                assert order[id(parent_host(node))] < order[id(node)]
            under_minis += sum(type(node.parent) is MiniNode
                               for node in nodes)
        assert under_minis >= 2

    def test_tree_height_is_the_one_height_function(self):
        for doc in walk_docs():
            height = subtree_height(doc.tree.root)
            assert height == reference_height(doc.tree)
            loaded = [disk_reload(doc.tree),
                      encoding.decode_state(doc.capture_state())[2],
                      flatten.explode(doc.atoms())]
            for tree in loaded + legacy_disk_trees():
                assert tree.height == subtree_height(tree.root) \
                    == reference_height(tree)
            assert loaded[0].height == loaded[1].height == height

    def test_recount_agrees_with_check_invariants(self):
        for doc in walk_docs():
            tree = doc.tree
            nodes = list(tree.root.iter_nodes())
            expected = [(node.live_count, node.id_count) for node in nodes]
            for node in nodes:
                entries = list(iter_subtree_entries(node))
                assert (node.live_count, node.id_count) == (
                    sum(e.live_count if type(e) is ArrayLeaf
                        else e.state == LIVE for e in entries),
                    sum(e.id_count if type(e) is ArrayLeaf
                        else e.state != EMPTY for e in entries))
            old = (tree.root.live_count, tree.root.id_count)
            for node in nodes:
                node.live_count = node.id_count = -1
            assert tree.recount_subtree(tree.root, old_counts=old) == old
            assert [(node.live_count, node.id_count)
                    for node in nodes] == expected
            tree.check_invariants()


def minis_type_tests():
    """``(module, function)`` of every ``type(m) is MiniNode`` or
    ``isinstance(m, MiniNode)`` test in ``src/repro`` whose ``m`` is a
    packed ``minis`` value: an ``x.minis`` attribute, or a name the
    enclosing function assigned from one."""
    found = []
    package = Path(repro.__file__).resolve().parent

    def is_mini_node(expr):
        return isinstance(expr, ast.Name) and expr.id == "MiniNode"

    def scan(body_owner, qualname, module):
        packed = {
            target.id
            for node in ast.walk(body_owner) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "minis"
            for target in node.targets if isinstance(target, ast.Name)
        }

        def is_packed(expr):
            return (isinstance(expr, ast.Attribute) and expr.attr == "minis"
                    or isinstance(expr, ast.Name) and expr.id in packed)

        for node in ast.walk(body_owner):
            tested = None
            if (isinstance(node, ast.Compare) and len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                    and is_mini_node(node.comparators[0])
                    and isinstance(node.left, ast.Call)
                    and isinstance(node.left.func, ast.Name)
                    and node.left.func.id == "type"):
                tested = node.left.args[0]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance"
                  and len(node.args) == 2 and is_mini_node(node.args[1])):
                tested = node.args[0]
            if tested is not None and is_packed(tested):
                found.append((module, qualname))

    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, "")]
        while stack:
            owner, prefix = stack.pop()
            for child in ast.iter_child_nodes(owner):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan(child, prefix + child.name, module)
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + "."))
    return found


class TestLayoutReaders:
    def test_the_packed_minis_are_read_in_one_module(self):
        """DESIGN.md section 7.1 rule 5: only ``core/node.py`` (and the
        counted descent and the cold-region survey, which inline the
        unpacking to save a call per level or node) tests whether
        ``minis`` holds a bare mini-node; every other reader goes
        through ``mini_nodes()`` or the node walks."""
        found = minis_type_tests()
        outside = sorted((module, name) for module, name in found
                         if module != "core/node.py")
        assert outside == [("core/flatten.py", "ColdRegionFinder._survey"),
                           ("core/tree.py", "TreedocTree.locate")]
        assert {name for module, name in found
                if module == "core/node.py"} >= {
            "PosNode.mini_nodes", "PosNode.iter_nodes",
            "iter_subtree_entries", "subtree_height"}
