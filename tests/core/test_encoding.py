"""Wire encoding: bit-level round trips and size accounting."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core import encoding
from repro.core.disambiguator import Sdis, Udis
from repro.core.ops import DeleteOp, FlattenOp, InsertOp, OpBatch
from repro.core.path import PLAIN, PathElement, PosID, ROOT
from repro.errors import EncodingError
from repro.util.bits import BitReader, BitWriter
from tests.conftest import posid_strategy


class TestBitPrimitives:
    def test_bit_round_trip(self):
        writer = BitWriter()
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1]
        for bit in bits:
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue(), writer.bit_length)
        assert [reader.read_bit() for _ in bits] == bits

    @given(st.integers(0, 2**30), st.integers(31, 40))
    def test_fixed_width_round_trip(self, value, width):
        writer = BitWriter()
        writer.write_bits(value, width)
        assert BitReader(writer.getvalue()).read_bits(width) == value

    @given(st.integers(1, 10_000))
    def test_elias_gamma_round_trip(self, value):
        writer = BitWriter()
        writer.write_elias_gamma(value)
        assert BitReader(writer.getvalue()).read_elias_gamma() == value

    def test_value_too_wide_rejected(self):
        writer = BitWriter()
        with pytest.raises(EncodingError):
            writer.write_bits(4, 2)

    def test_exhausted_stream_raises(self):
        reader = BitReader(b"", 0)
        with pytest.raises(EncodingError):
            reader.read_bit()


class TestPosidEncoding:
    @given(posid_strategy)
    @settings(max_examples=200)
    def test_round_trip(self, posid):
        data, bits = encoding.encode_posid(posid)
        assert encoding.decode_posid(data, bits) == posid

    def test_sdis_and_udis_disambiguators(self):
        sdis_path = PosID([PathElement(1, Sdis(42))])
        udis_path = PosID([PathElement(0, Udis(7, 42))])
        for posid in (sdis_path, udis_path, ROOT):
            data, bits = encoding.encode_posid(posid)
            assert encoding.decode_posid(data, bits) == posid

    def test_size_accounting_matches_posid_size_bits(self):
        # The Table 1 metric (PosID.size_bits) must equal the wire
        # format's element payload, excluding framing: the gamma length
        # prefix and one UDIS/SDIS tag bit per disambiguator.
        posid = PosID([PathElement(1, Sdis(3)), PathElement(0),
                       PathElement(1, Udis(2, 5))])
        _, framed_bits = encoding.encode_posid(posid)
        length_prefix = BitWriter()
        length_prefix.write_elias_gamma(posid.depth + 1)
        dis_tags = sum(1 for e in posid if e.dis is not None)
        assert (
            framed_bits - length_prefix.bit_length - dis_tags
            == posid.size_bits
        )


def reference_write_posid(writer, posid):
    """The PosID layout one bit-field at a time, as first written."""
    writer.write_elias_gamma(posid.depth + 1)
    for element in posid:
        writer.write_bit(element.bit)
        if element.dis is None:
            writer.write_bit(0)
            continue
        writer.write_bit(1)
        if isinstance(element.dis, Udis):
            writer.write_bit(1)
            writer.write_bits(element.dis.counter, 32)
        else:
            writer.write_bit(0)
        writer.write_bits(element.dis.site, 48)


def reference_read_posid(reader):
    elements = []
    for _ in range(reader.read_elias_gamma() - 1):
        bit = reader.read_bit()
        if not reader.read_bit():
            elements.append(PathElement(bit))
        elif reader.read_bit():
            counter = reader.read_bits(32)
            elements.append(PathElement(bit, Udis(counter,
                                                  reader.read_bits(48))))
        else:
            elements.append(PathElement(bit, Sdis(reader.read_bits(48))))
    return PosID(elements)


long_posids = st.builds(PosID, st.lists(st.builds(
    PathElement,
    bit=st.integers(0, 1),
    dis=st.one_of(
        st.none(), st.none(), st.none(),
        st.builds(Sdis, st.integers(0, 2**48 - 1)),
        st.builds(Udis, st.integers(0, 2**32 - 1), st.integers(0, 2**48 - 1)),
    ),
), max_size=70))


class TestPosidLayout:
    """The field-at-a-time posid codec against the per-bit layout."""

    @given(st.lists(long_posids, min_size=1, max_size=4),
           st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_and_same_truncation_behaviour(self, posids, lead):
        fast, slow = BitWriter(), BitWriter()
        for writer, write in ((fast, encoding.write_posid),
                              (slow, reference_write_posid)):
            writer.write_bits(0, lead)
            for posid in posids:
                write(writer, posid)
        assert (fast.getvalue(), fast.bit_length) == (
            slow.getvalue(), slow.bit_length
        )
        data = fast.getvalue()
        for cut in range(lead, fast.bit_length + 1):
            outcomes = []
            for read in (encoding.read_posid, reference_read_posid):
                reader = BitReader(data, cut)
                reader.read_bits(lead)
                try:
                    result = [read(reader) for _ in posids]
                except EncodingError:
                    result = "exhausted"
                outcomes.append((result, reader.bit_position))
            assert outcomes[0] == outcomes[1]
        reader = BitReader(data, fast.bit_length)
        reader.read_bits(lead)
        assert [encoding.read_posid(reader) for _ in posids] == posids


class TestOperationEncoding:
    def _sample_ops(self):
        posid = PosID([PathElement(1, Udis(3, 9)), PathElement(0)])
        return [
            InsertOp(posid, "hello world", 9),
            DeleteOp(posid, 9),
            FlattenOp(PosID([PathElement(1)]), "ab" * 32, 9),
        ]

    def test_round_trips(self):
        for op in self._sample_ops():
            data, bits = encoding.encode_operation(op)
            back = encoding.decode_operation(data, bits)
            assert back.kind == op.kind
            assert back.origin == op.origin

    def test_insert_carries_atom(self):
        op = self._sample_ops()[0]
        back = encoding.decode_operation(*encoding.encode_operation(op))
        assert back.atom == "hello world"
        assert back.posid == op.posid

    def test_network_cost_dominated_by_posid_and_atom(self):
        # Section 5.2: the network cost of an edit is a PosID plus, for
        # inserts, the atom.
        posid = PosID([PathElement(1, Sdis(1))])
        insert_cost = encoding.operation_cost_bits(InsertOp(posid, "x" * 40, 1))
        delete_cost = encoding.operation_cost_bits(DeleteOp(posid, 1))
        assert insert_cost > delete_cost
        assert insert_cost - delete_cost >= 40 * 8

    def test_unicode_atom(self):
        op = InsertOp(PosID([PathElement(1, Sdis(1))]), "héllo ⊕ wörld", 1)
        back = encoding.decode_operation(*encoding.encode_operation(op))
        assert back.atom == "héllo ⊕ wörld"


class TestDecodedPlainElements:
    """A decoded path's plain elements are the shared ``PLAIN`` pair, as
    in identifiers derived from the tree (DESIGN.md section 7.1)."""

    posid = PosID([PathElement(1), PathElement(0), PathElement(1, Udis(3, 9)),
                   PathElement(0), PathElement(1)])

    @staticmethod
    def assert_shared(decoded, written):
        assert decoded == written
        for element in decoded:
            if element.dis is None:
                assert element is PLAIN[element.bit]

    def test_v1_operation(self):
        for op in (InsertOp(self.posid, "a", 9), DeleteOp(self.posid, 9)):
            back = encoding.decode_operation(*encoding.encode_operation(op))
            self.assert_shared(back.posid, self.posid)

    def test_compact_batch(self):
        ops = (InsertOp(self.posid, "a", 9), DeleteOp(self.posid, 9),
               FlattenOp(PosID([PathElement(1), PathElement(0)]), "ab", 9))
        batch = OpBatch.build(ops, 9, 1)
        back = encoding.decode_batch(*encoding.encode_batch(batch))
        def path(op):
            return op.path if type(op) is FlattenOp else op.posid

        for op, written in zip(back.ops, ops):
            self.assert_shared(path(op), path(written))

    def test_prepare_path(self):
        from repro.replication.clock import VectorClock
        from repro.replication.commit import PrepareMsg
        from repro.replication.wire import decode_wire, encode_wire

        prepare = PrepareMsg("3.17", self.posid, VectorClock({3: 2}), 3)
        self.assert_shared(decode_wire(encode_wire(prepare)).path,
                           self.posid)
