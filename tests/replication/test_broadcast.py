"""Causal broadcast: happened-before delivery under adverse networks.

The channel is bytes-only: every broadcast is an encoded EnvelopeFrame
around one batch. Hand-crafted envelopes (``_frame``) still carry a bare
v1 operation, the payload older writers produced, to pin the read path.
"""

from repro.core.ops import InsertOp, OpBatch
from repro.core.path import PathElement, PosID
from repro.core.treedoc import Treedoc
from repro.replication.broadcast import CausalBroadcast
from repro.replication.clock import VectorClock
from repro.replication.network import NetworkConfig, SimulatedNetwork
from repro.replication.wire import EnvelopeFrame, encode_wire


def _endpoint(net, site, log):
    return CausalBroadcast(
        site, net, lambda origin, payload: log.append((site, origin, payload))
    )


def _op(tag: int, origin: int = 1) -> InsertOp:
    """A distinct, encodable payload: tag encoded in the atom."""
    posid = PosID([PathElement(1)])
    return InsertOp(posid, f"payload-{tag}", origin)


def _one(tag: int, origin: int = 1) -> OpBatch:
    """``_op`` as the one-op batch a writer ships (seq ``tag``)."""
    return OpBatch.build((_op(tag, origin),), origin, tag)


def _frame(origin: int, clock: VectorClock, tag: int) -> EnvelopeFrame:
    """A hand-crafted envelope (for delivery-order tests)."""
    from repro.core.encoding import encode_operation

    payload, bits = encode_operation(_op(tag, origin))
    return EnvelopeFrame(origin, clock, payload, bits)


def _payload_op(payload):
    """The one operation a delivered payload carries (a one-op batch,
    or a bare operation from a hand-crafted envelope)."""
    if isinstance(payload, OpBatch):
        (op,) = payload.ops
        return op
    return payload


def _atoms(log, site, origin=None):
    return [
        _payload_op(payload).atom
        for s, o, payload in log
        if s == site and (origin is None or o == origin)
    ]


class TestCausalDelivery:
    def test_fifo_per_origin(self):
        net = SimulatedNetwork(seed=11)
        log = []
        a = _endpoint(net, 1, log)
        _endpoint(net, 2, log)
        for n in range(20):
            a.broadcast(_one(n, 1))
        net.run()
        assert _atoms(log, 2) == [f"payload-{n}" for n in range(20)]

    def test_causal_order_across_origins(self):
        # b's message depends on a's; c must deliver a's first even if
        # the network reorders.
        net = SimulatedNetwork(NetworkConfig(min_latency=1, max_latency=200),
                               seed=13)
        log = []
        a = _endpoint(net, 1, log)
        b = _endpoint(net, 2, log)
        _endpoint(net, 3, log)
        a.broadcast(_one(0, 1))  # "cause"
        net.run()
        b.broadcast(_one(1, 2))  # "effect": b saw the cause before sending
        net.run()
        at_c = [(origin, _payload_op(payload).atom)
                for site, origin, payload in log if site == 3]
        assert at_c == [(1, "payload-0"), (2, "payload-1")]

    def test_batch_payload_round_trips(self):
        net = SimulatedNetwork(seed=5)
        log = []
        a = _endpoint(net, 1, log)
        _endpoint(net, 2, log)
        doc = Treedoc(site=1)
        batch = doc.insert_text(0, list("hello")).seal()
        a.broadcast(batch)
        net.run()
        (site, origin, delivered), = [e for e in log if e[0] == 2]
        assert isinstance(delivered, OpBatch)
        assert tuple(delivered.ops) == tuple(batch.ops)
        assert delivered.verify()

    def test_buffering_reported(self):
        net = SimulatedNetwork(seed=1)
        log = []
        receiver = _endpoint(net, 2, log)
        # Hand-craft an envelope that depends on an undelivered message.
        future = _frame(1, VectorClock({1: 2}), 99)
        receiver.on_frame(future)
        assert receiver.buffered == 1
        assert receiver.blocked_since is not None
        assert receiver.buffered_origins() == [1]
        assert log == []
        first = _frame(1, VectorClock({1: 1}), 1)
        receiver.on_frame(first)
        assert receiver.buffered == 0
        assert receiver.blocked_since is None
        assert _atoms(log, 2) == ["payload-1", "payload-99"]

    def test_duplicates_filtered(self):
        net = SimulatedNetwork(seed=1)
        log = []
        receiver = _endpoint(net, 2, log)
        envelope = _frame(1, VectorClock({1: 1}), 7)
        receiver.on_frame(envelope)
        receiver.on_frame(envelope)
        assert _atoms(log, 2) == ["payload-7"]
        assert receiver.has_delivered(1, 1)

    def test_on_message_accepts_wire_bytes_only(self):
        import pytest

        from repro.errors import CausalityError, DecodeError
        from repro.replication.wire import AckFrame

        net = SimulatedNetwork(seed=1)
        log = []
        receiver = _endpoint(net, 2, log)
        with pytest.raises(DecodeError):
            receiver.on_message(1, b"\x00garbage-not-a-frame")
        # A valid frame of the wrong kind is a protocol violation.
        with pytest.raises(CausalityError):
            receiver.on_message(
                1, encode_wire(AckFrame(1, VectorClock({1: 1})))
            )
        assert log == []

    def test_undecodable_payload_is_not_recorded_as_delivered(self):
        # Regression: _drain used to dequeue the frame and merge its
        # clock BEFORE decoding, so a valid-CRC envelope whose inner
        # payload failed to decode was permanently marked delivered —
        # every retransmission then dropped as a duplicate and the
        # replicas silently diverged.
        import pytest

        from repro.errors import DecodeError

        net = SimulatedNetwork(seed=1)
        log = []
        receiver = _endpoint(net, 2, log)
        poison = EnvelopeFrame(1, VectorClock({1: 1}), b"\xff\xff\xff", 24)
        with pytest.raises(DecodeError):
            receiver.on_frame(poison)
        # Not delivered, not counted: the clock did not advance, so a
        # corrected retransmission of sequence 1 still goes through.
        assert receiver.clock.get(1) == 0
        assert not receiver.has_delivered(1, 1)
        assert receiver.buffered == 0  # ...and the buffer is not wedged
        good = _frame(1, VectorClock({1: 1}), 1)
        receiver.on_frame(good)
        assert _atoms(log, 2) == ["payload-1"]
        assert receiver.has_delivered(1, 1)

    def test_lossy_duplicating_network_delivers_each_once_in_order(self):
        net = SimulatedNetwork(
            NetworkConfig(drop_rate=0.3, duplicate_rate=0.3), seed=17
        )
        log = []
        a = _endpoint(net, 1, log)
        b = _endpoint(net, 2, log)
        _endpoint(net, 3, log)
        for n in range(15):
            a.broadcast(_one(n, 1))
            b.broadcast(_one(100 + n, 2))
        net.run()
        for site in (1, 2, 3):
            if site != 1:
                assert _atoms(log, site, origin=1) == [
                    f"payload-{n}" for n in range(15)
                ]
            if site != 2:
                assert _atoms(log, site, origin=2) == [
                    f"payload-{100 + n}" for n in range(15)
                ]
