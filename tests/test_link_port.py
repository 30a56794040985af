"""Links and egress ports: timing, scheduling, pausing, loss."""

import random

import pytest

from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Simulator
from repro.units import SEC, gbps, serialization_delay
from tests.conftest import MiniNet, lossy_link


class Sink(Node):
    """Records every packet it receives with its arrival time."""

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, f"sink{node_id}")
        self.received = []

    def receive(self, pkt, ingress_port):
        self.received.append((self.sim.now, pkt))


def make_pair(bandwidth=gbps(10), delay=1000):
    sim = Simulator()
    a, b = Sink(sim, 0), Sink(sim, 1)
    link = Link(sim, a, b, bandwidth, delay)
    a.attach_link(link)
    a.ports[0].add_rr_queues(3)  # queues 2, 3, 4
    b.attach_link(link)
    return sim, a, b, link


def data(size=1000, seq=0):
    return Packet(PacketKind.DATA, 0, 1, size, flow_id=1, seq=seq)


class TestTiming:
    def test_single_packet_latency(self):
        sim, a, b, link = make_pair()
        a.ports[0].enqueue(data(1000), 1)
        sim.run()
        arrival = b.received[0][0]
        assert arrival == serialization_delay(1000, gbps(10)) + 1000

    def test_back_to_back_serialization(self):
        sim, a, b, link = make_pair()
        a.ports[0].enqueue(data(1000, 0), 1)
        a.ports[0].enqueue(data(1000, 1), 1)
        sim.run()
        t0, t1 = b.received[0][0], b.received[1][0]
        assert t1 - t0 == serialization_delay(1000, gbps(10))

    def test_faster_link_is_faster(self):
        sim1, a1, b1, _ = make_pair(bandwidth=gbps(10))
        sim4, a4, b4, _ = make_pair(bandwidth=gbps(40))
        a1.ports[0].enqueue(data(), 1)
        a4.ports[0].enqueue(data(), 1)
        sim1.run()
        sim4.run()
        assert b4.received[0][0] < b1.received[0][0]


class TestScheduling:
    def test_control_preempts_data(self):
        sim, a, b, _ = make_pair()
        # fill the data queue first, then add control
        a.ports[0].enqueue(data(1000, 0), 1)
        a.ports[0].enqueue(data(1000, 1), 1)
        a.ports[0].enqueue_control(Packet.control(PacketKind.CREDIT, 0, 1))
        sim.run()
        kinds = [p.kind for _, p in b.received]
        # the first data packet was already serializing; control jumps
        # ahead of the second data packet
        assert kinds[1] == PacketKind.CREDIT

    def test_data_queue_goes_before_the_rr_group(self):
        sim, a, b, _ = make_pair()
        port = a.ports[0]
        port.enqueue(data(1000, 0), 1)   # occupies the serializer
        port.enqueue(data(1000, 99), 2)  # round-robin queue
        port.enqueue(data(1000, 1), 1)
        port.enqueue(data(1000, 2), 1)
        sim.run()
        seqs = [p.seq for _, p in b.received]
        assert seqs.index(1) < seqs.index(99)
        assert seqs.index(2) < seqs.index(99)

    def test_round_robin_among_rr_queues(self):
        sim, a, b, _ = make_pair()
        port = a.ports[0]
        # control 0, data 1, RR 2..4: queues 3 and 4 take turns
        for i in range(3):
            port.enqueue(data(1000, 10 + i), 3)
            port.enqueue(data(1000, 20 + i), 4)
        sim.run()
        seqs = [p.seq for _, p in b.received]
        # strict alternation between the two RR queues
        assert seqs == [10, 20, 11, 21, 12, 22]

    def test_add_rr_queues_returns_index(self):
        sim, a, b, _ = make_pair()
        first = a.ports[0].add_rr_queues(2)
        assert first == 5
        assert len(a.ports[0].queues) == 7


class TestPause:
    def test_port_pause_blocks_data_not_control(self):
        sim, a, b, _ = make_pair()
        port = a.ports[0]
        port.pause()
        port.enqueue(data(), 1)
        port.enqueue_control(Packet.control(PacketKind.CREDIT, 0, 1))
        sim.run()
        kinds = [p.kind for _, p in b.received]
        assert kinds == [PacketKind.CREDIT]
        port.resume()
        sim.run()
        assert len(b.received) == 2

    def test_pause_time_accounting(self):
        sim, a, b, _ = make_pair()
        port = a.ports[0]
        sim.schedule(100, port.pause)
        sim.schedule(400, port.resume)
        sim.schedule(500, lambda: None)
        sim.run()
        assert port.total_paused_time == 300

    def test_queue_pause_blocks_only_that_queue(self):
        sim, a, b, _ = make_pair()
        port = a.ports[0]
        port.pause_queue(3)
        port.enqueue(data(1000, 1), 3)
        port.enqueue(data(1000, 2), 4)
        sim.run()
        assert [p.seq for _, p in b.received] == [2]
        port.resume_queue(3)
        sim.run()
        assert [p.seq for _, p in b.received] == [2, 1]

    def test_control_queue_cannot_be_paused(self):
        sim, a, _, _ = make_pair()
        with pytest.raises(ValueError):
            a.ports[0].pause_queue(0)


class TestLoss:
    def test_loss_rate_zero_delivers_all(self):
        sim, a, b, link = make_pair()
        for i in range(50):
            a.ports[0].enqueue(data(seq=i), 1)
        sim.run()
        assert len(b.received) == 50

    def test_loss_drops_expected_fraction(self):
        sim, a, b, link = make_pair()
        state = lossy_link(link, 0.5, random.Random(42))
        for i in range(400):
            a.ports[0].enqueue(data(seq=i), 1)
        sim.run()
        assert 120 < len(b.received) < 280
        assert state.injected_drops_data == 400 - len(b.received)

    def test_invalid_loss_rate_rejected(self):
        from repro.faults import RandomLoss

        with pytest.raises(ValueError):
            RandomLoss(data_rate=1.5)

    def test_peer_helpers(self):
        _, a, b, link = make_pair()
        assert link.peer_of(a) is b
        assert link.peer_of(b) is a
        assert link.peer_port_of(a) == 0


class TestDelayTable:
    def _port(self):
        return MiniNet().topo.hosts[0].ports[0]

    def test_memoized_delay_matches_the_arithmetic(self):
        port = self._port()
        for size in (64, 1000, 1500):
            expect = int(round(size * 8 * SEC / port.bandwidth))
            assert port.serialization_delay_of(size) == expect
            # second read comes from the memo and must agree
            assert port.serialization_delay_of(size) == expect
