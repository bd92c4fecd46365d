"""The discrete-event network: delivery, loss, duplication, corruption,
partitions, and the bytes-only wire discipline."""

import pytest

from repro.errors import DecodeError, ReplicationError
from repro.replication.network import NetworkConfig, SimulatedNetwork


def _collector(log, site):
    def handler(src, payload):
        log.append((site, src, payload))
    return handler


def _b(n: int) -> bytes:
    """A distinct bytes payload encoding ``n``."""
    return b"m%d" % n


class TestDelivery:
    def test_messages_arrive(self):
        net = SimulatedNetwork(seed=1)
        log = []
        for site in (1, 2):
            net.register(site, _collector(log, site))
        net.send(1, 2, b"hello")
        net.send(2, 1, b"world")
        assert net.run() == 2
        assert sorted(log) == [(1, 2, b"world"), (2, 1, b"hello")]

    def test_broadcast_reaches_everyone_but_sender(self):
        net = SimulatedNetwork(seed=1)
        log = []
        for site in (1, 2, 3, 4):
            net.register(site, _collector(log, site))
        net.broadcast(1, b"x")
        net.run()
        assert sorted(receiver for receiver, _, _ in log) == [2, 3, 4]

    def test_latency_reorders_messages(self):
        # With variable latency, some pair of messages must arrive out
        # of send order across many sends.
        net = SimulatedNetwork(seed=3)
        arrivals = []
        net.register(1, lambda src, payload: None)
        net.register(2, lambda src, payload: arrivals.append(payload))
        expected = [_b(n) for n in range(50)]
        for n in range(50):
            net.send(1, 2, _b(n))
        net.run()
        assert sorted(arrivals) == sorted(expected)
        assert arrivals != expected

    def test_unknown_destination_rejected(self):
        net = SimulatedNetwork(seed=1)
        net.register(1, lambda s, p: None)
        with pytest.raises(ReplicationError):
            net.send(1, 9, b"x")

    def test_send_to_a_disconnected_site_is_a_loss(self):
        # A crashed site's id is known: a send to it is retried like a
        # message in flight when it crashed, then abandoned.
        net = SimulatedNetwork(NetworkConfig(max_transmit_attempts=3),
                               seed=1)
        log = []
        for site in (1, 2):
            net.register(site, _collector(log, site))
        net.disconnect(2)
        net.send(1, 2, b"x")
        assert net.run() == 3
        assert net.dropped_transmissions == 3
        assert net.delivered_messages == 0 and log == []
        with pytest.raises(ReplicationError):
            net.send(1, 9, b"x")  # never registered: still unknown

    def test_send_to_a_disconnected_site_reaches_its_restart(self):
        net = SimulatedNetwork(seed=1)
        log = []
        net.register(1, _collector(log, 1))
        net.register(2, _collector(log, 2))
        net.disconnect(2)
        net.send(1, 2, b"x")
        net.step()  # lost once, retried
        net.register(2, _collector(log, 2))
        net.run()
        assert log == [(2, 1, b"x")]
        assert net.dropped_transmissions == 1

    def test_non_bytes_payload_rejected(self):
        # The wire discipline: nothing but bytes may cross a link.
        net = SimulatedNetwork(seed=1)
        net.register(1, lambda s, p: None)
        net.register(2, lambda s, p: None)
        for payload in ("text", 42, object(), ["list"], None):
            with pytest.raises(ReplicationError):
                net.send(1, 2, payload)
        assert net.sent_messages == 0

    def test_duplicate_registration_rejected(self):
        net = SimulatedNetwork(seed=1)
        net.register(1, lambda s, p: None)
        with pytest.raises(ReplicationError):
            net.register(1, lambda s, p: None)

    def test_determinism_per_seed(self):
        def run_once(seed):
            net = SimulatedNetwork(
                NetworkConfig(drop_rate=0.2, duplicate_rate=0.1), seed=seed
            )
            arrivals = []
            net.register(1, lambda s, p: None)
            net.register(2, lambda s, p: arrivals.append(p))
            for n in range(30):
                net.send(1, 2, _b(n))
            net.run()
            return arrivals

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)


class TestByteAccounting:
    def test_counters_track_payload_sizes(self):
        net = SimulatedNetwork(seed=2)
        net.register(1, lambda s, p: None)
        net.register(2, lambda s, p: None)
        net.register(3, lambda s, p: None)
        net.send(1, 2, b"12345")
        net.send(1, 3, b"1234567")
        net.send(2, 1, b"ab")
        net.run()
        assert net.bytes_sent == 5 + 7 + 2
        assert net.bytes_delivered == net.bytes_sent
        assert net.link_bytes == {(1, 2): 5, (1, 3): 7, (2, 1): 2}
        assert net.link_bytes_to(3) == 7
        assert net.link_bytes_to(1) == 2

    def test_duplicates_and_retransmissions_bill_the_link(self):
        net = SimulatedNetwork(
            NetworkConfig(drop_rate=0.4, duplicate_rate=0.4), seed=9
        )
        net.register(1, lambda s, p: None)
        received = []
        net.register(2, lambda s, p: received.append(p))
        for n in range(40):
            net.send(1, 2, b"x" * 10)
        net.run()
        assert net.bytes_sent == 400
        # Every extra delivery costs wire bytes too.
        assert net.bytes_delivered == len(received) * 10
        assert net.bytes_delivered > 400


class TestLossAndDuplication:
    def test_lossy_transport_still_delivers_everything(self):
        net = SimulatedNetwork(NetworkConfig(drop_rate=0.4), seed=5)
        received = []
        net.register(1, lambda s, p: None)
        net.register(2, lambda s, p: received.append(p))
        for n in range(100):
            net.send(1, 2, _b(n))
        net.run()
        assert sorted(received) == sorted(_b(n) for n in range(100))
        assert net.dropped_transmissions > 0

    def test_duplication_delivers_extra_copies(self):
        net = SimulatedNetwork(NetworkConfig(duplicate_rate=0.5), seed=5)
        received = []
        net.register(1, lambda s, p: None)
        net.register(2, lambda s, p: received.append(p))
        for n in range(60):
            net.send(1, 2, _b(n))
        net.run()
        assert len(received) > 60
        assert set(received) == {_b(n) for n in range(60)}


class TestCorruption:
    def test_rejected_corruption_is_retransmitted(self):
        # A receiver that rejects damaged frames (DecodeError) sees
        # every message intact eventually: corruption behaves as loss.
        # Payloads carry a checksum (as the real wire frames do), so a
        # flipped bit can never turn one valid message into another.
        import zlib

        def framed(n):
            body = b"msg-%03d" % n
            return body + zlib.crc32(body).to_bytes(4, "big")

        # Scripted faults, not a lucky draw: exactly these transmissions
        # arrive damaged (the 2nd is a retransmission of the 1st).
        script = frozenset({1, 2, 7, 30})
        net = SimulatedNetwork(
            NetworkConfig(corrupt_transmissions=script), seed=3
        )
        received = []
        damaged_at = []

        def strict(src, payload):
            body, crc = payload[:-4], payload[-4:]
            if zlib.crc32(body) != int.from_bytes(crc, "big"):
                damaged_at.append(net.transmissions)
                raise DecodeError("damaged")
            received.append(payload)

        net.register(1, lambda s, p: None)
        net.register(2, strict)
        for n in range(50):
            net.send(1, 2, framed(n))
        net.run()
        assert sorted(received) == sorted(framed(n) for n in range(50))
        assert damaged_at == sorted(script)
        assert net.corrupted_transmissions == len(script)
        assert net.decode_rejections == net.corrupted_transmissions

    def test_corrupted_bytes_differ_by_one_bit(self):
        net = SimulatedNetwork(NetworkConfig(corruption_rate=1.0), seed=4)
        seen = []

        def tolerant(src, payload):
            seen.append(payload)

        net.register(1, lambda s, p: None)
        net.register(2, tolerant)
        original = b"\x00" * 8
        net.send(1, 2, original)
        net.run()
        (damaged,) = seen
        flipped = [
            bit
            for byte_o, byte_d in zip(original, damaged)
            for bit in range(8)
            if (byte_o ^ byte_d) & (1 << bit)
        ]
        assert len(flipped) == 1  # exactly one bit inverted

    def test_undecodable_sender_bytes_do_not_abort_the_simulation(self):
        # A receiver rejecting *intact* bytes (sender framing defect)
        # is still loss to the transport: retried until attempts run
        # out, then abandoned — other traffic keeps flowing.
        net = SimulatedNetwork(
            NetworkConfig(max_transmit_attempts=3, retransmit_delay=1.0),
            seed=8,
        )
        delivered = []

        def strict(src, payload):
            if payload == b"poison":
                raise DecodeError("always undecodable")
            delivered.append(payload)

        net.register(1, lambda s, p: None)
        net.register(2, strict)
        net.send(1, 2, b"poison")
        net.send(1, 2, b"fine")
        net.run()
        assert delivered == [b"fine"]
        assert net.decode_rejections == 3  # one per attempt, then dropped

    def test_final_attempt_is_never_corrupted(self):
        # Eventual delivery: with certain corruption and a strict
        # receiver, the max_transmit_attempts'th try goes through clean.
        net = SimulatedNetwork(
            NetworkConfig(corruption_rate=1.0, max_transmit_attempts=4,
                          retransmit_delay=1.0),
            seed=6,
        )
        received = []

        def strict(src, payload):
            if payload != b"intact":
                raise DecodeError("damaged")
            received.append(payload)

        net.register(1, lambda s, p: None)
        net.register(2, strict)
        net.send(1, 2, b"intact")
        net.run()
        assert received == [b"intact"]
        assert net.corrupted_transmissions == 3  # attempts 1..3 damaged


class TestPartitions:
    def test_partition_holds_messages_until_heal(self):
        net = SimulatedNetwork(seed=2)
        received = []
        net.register(1, lambda s, p: None)
        net.register(2, lambda s, p: received.append(p))
        net.partition({1}, {2})
        net.send(1, 2, b"blocked")
        net.run()
        assert received == []
        assert net.held == 1
        net.heal()
        net.run()
        assert received == [b"blocked"]

    def test_intra_group_traffic_flows_during_partition(self):
        net = SimulatedNetwork(seed=2)
        received = []
        for site in (1, 2, 3):
            net.register(site, _collector(received, site))
        net.partition({1, 2}, {3})
        net.send(1, 2, b"ok")
        net.send(1, 3, b"blocked")
        net.run()
        assert [(r, s, p) for r, s, p in received] == [(2, 1, b"ok")]

    def test_unmentioned_sites_form_their_own_group(self):
        net = SimulatedNetwork(seed=2)
        log = []
        for site in (1, 2, 3):
            net.register(site, _collector(log, site))
        net.partition({1})
        net.send(2, 3, b"peer")
        net.send(1, 2, b"cut")
        net.run()
        assert [(r, s, p) for r, s, p in log] == [(3, 2, b"peer")]
