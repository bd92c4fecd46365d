"""The Treedoc facade: local editing, remote replay, queries."""

import pytest

from repro.core.ops import DeleteOp, InsertOp
from repro.core.treedoc import Treedoc
from repro.errors import MissingAtomError, TreeError


class TestLocalEditing:
    def test_insert_returns_broadcastable_op(self):
        doc = Treedoc(site=7)
        op = doc.insert(0, "x")
        assert isinstance(op, InsertOp)
        assert op.origin == 7 and op.atom == "x"

    def test_text_and_atoms(self):
        doc = Treedoc(site=1)
        for i, c in enumerate("hello"):
            doc.insert(i, c)
        assert doc.text() == "hello"
        assert doc.atoms() == list("hello")
        assert doc.text("-") == "h-e-l-l-o"
        assert len(doc) == 5

    def test_atom_at_and_posid_at(self):
        doc = Treedoc(site=1)
        doc.insert(0, "a")
        doc.insert(1, "b")
        assert doc.atom_at(1) == "b"
        assert doc.posid_at(0) < doc.posid_at(1)

    def test_insert_out_of_range(self):
        doc = Treedoc(site=1)
        with pytest.raises(IndexError):
            doc.insert(1, "x")
        with pytest.raises(IndexError):
            doc.insert(-1, "x")

    def test_delete_out_of_range(self):
        doc = Treedoc(site=1)
        with pytest.raises(IndexError):
            doc.delete(0)

    def test_delete_posid(self):
        doc = Treedoc(site=1)
        doc.insert(0, "a")
        posid = doc.posid_at(0)
        op = doc.delete_posid(posid)
        assert isinstance(op, DeleteOp) and op.posid == posid
        assert len(doc) == 0
        with pytest.raises(MissingAtomError):
            doc.delete_posid(posid)

    def test_insert_run_empty_is_noop(self):
        doc = Treedoc(site=1)
        assert list(doc.insert_text(0, []).ops) == []
        assert len(doc) == 0


class TestRemoteReplay:
    def test_ops_replay_on_fresh_replica(self):
        source = Treedoc(site=1)
        ops = [source.insert(i, c) for i, c in enumerate("shared text")]
        ops.append(source.delete(0))
        replica = Treedoc(site=2)
        replica.apply_all(ops)
        assert replica.text() == source.text() == "hared text"

    def test_unknown_operation_rejected(self):
        doc = Treedoc(site=1)
        with pytest.raises(TreeError):
            doc.apply("not an op")

    def test_modes_must_match_for_tombstone_semantics(self):
        source = Treedoc(site=1, mode="sdis")
        ops = [source.insert(i, c) for i, c in enumerate("abc")]
        ops.append(source.delete(1))
        replica = Treedoc(site=2, mode="sdis")
        replica.apply_all(ops)
        assert replica.tree.id_length == 3  # tombstone retained
        udis_replica = Treedoc(site=3, mode="udis")
        udis_replica.apply_all(ops)
        assert udis_replica.tree.id_length == 2  # discarded


class TestCommutativity:
    """Section 2.2's case analysis, as concrete tests."""

    def _two_synced_replicas(self, mode="udis"):
        a, b = Treedoc(site=1, mode=mode), Treedoc(site=2, mode=mode)
        for op in [a.insert(i, c) for i, c in enumerate("base")]:
            b.apply(op)
        return a, b

    def test_concurrent_inserts_commute(self):
        a, b = self._two_synced_replicas()
        op_a = a.insert(2, "A")
        op_b = b.insert(2, "B")
        a.apply(op_b)
        b.apply(op_a)
        assert a.text() == b.text()

    def test_concurrent_insert_and_delete_commute(self):
        a, b = self._two_synced_replicas()
        op_a = a.insert(1, "A")
        op_b = b.delete(3)
        a.apply(op_b)
        b.apply(op_a)
        assert a.text() == b.text()

    def test_concurrent_deletes_of_same_atom_commute(self):
        for mode in ("udis", "sdis"):
            a, b = self._two_synced_replicas(mode)
            op_a = a.delete(1)
            op_b = b.delete(1)
            assert op_a.posid == op_b.posid
            a.apply(op_b)  # idempotent second delete
            b.apply(op_a)
            assert a.text() == b.text() == "bse"

    def test_insert_happens_before_its_delete(self):
        # An insert and a delete of the same PosID can never be
        # concurrent; delivered in causal order they always apply.
        a, b = self._two_synced_replicas()
        op_ins = a.insert(0, "X")
        op_del = a.delete(0)
        b.apply(op_ins)
        b.apply(op_del)
        assert b.text() == a.text() == "base"

    def test_three_replicas_permuted_delivery(self):
        import itertools

        a = Treedoc(site=1)
        base_ops = [a.insert(i, c) for i, c in enumerate("xyz")]
        op1 = a.insert(1, "1")
        op2 = a.insert(3, "2")
        op3 = a.delete(0)
        reference = a.text()
        # op1..op3 originate at the same site, so their causal order is
        # fixed; but independent ops from different sites may interleave:
        b = Treedoc(site=2)
        c1 = Treedoc(site=3)
        for replica in (b, c1):
            replica.apply_all(base_ops)
        ins_b = b.insert(2, "B")
        ins_c = c1.insert(2, "C")
        for ops in itertools.permutations([ins_b, ins_c]):
            replica = Treedoc(site=9)
            replica.apply_all(base_ops)
            replica.apply_all(ops)
            replica.check()
        b.apply(ins_c)
        c1.apply(ins_b)
        assert b.text() == c1.text()
        assert reference  # silence unused warning


class TestRevisionBookkeeping:
    def test_note_revision_monotonic(self):
        doc = Treedoc(site=1)
        assert doc.note_revision() == 1
        assert doc.note_revision() == 2

    def test_repr_mentions_site_and_size(self):
        doc = Treedoc(site=12, mode="sdis")
        doc.insert(0, "a")
        text = repr(doc)
        assert "12" in text and "sdis" in text
