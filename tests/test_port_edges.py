"""Egress-port edge cases the main flows don't reach."""

from hypothesis import given, strategies as st

from repro.net.packet import Packet, PacketKind
from tests.test_link_port import data, make_pair


class TestKick:
    def test_kick_on_idle_empty_port_is_noop(self):
        sim, a, b, _ = make_pair()
        a.ports[0].kick()
        sim.run()
        assert b.received == []

    def test_kick_resumes_after_external_unblock(self):
        sim, a, b, _ = make_pair()
        port = a.ports[0]
        port.pause_queue(1)  # pauses without a kick
        port.enqueue(data(), 1)
        sim.run()
        assert b.received == []
        port.paused_queues.discard(1)
        port.kick()
        sim.run()
        assert len(b.received) == 1


class TestCounters:
    def test_tx_bytes_counts_everything(self):
        sim, a, b, _ = make_pair()
        a.ports[0].enqueue(data(1000), 1)
        a.ports[0].enqueue_control(Packet.control(PacketKind.ACK, 0, 1))
        sim.run()
        assert a.ports[0].tx_bytes == 1000 + 64

    def test_data_bytes_queued_excludes_control(self):
        sim, a, _, _ = make_pair()
        port = a.ports[0]
        port.pause()
        port.enqueue(data(1000), 1)
        port.enqueue(data(500), 2)
        # control transmits despite pause, so enqueue several to keep
        # at least one queued at inspection time
        port.enqueue_control(Packet.control(PacketKind.ACK, 0, 1))
        port.enqueue_control(Packet.control(PacketKind.ACK, 0, 1))
        assert port.data_bytes_queued == 1500


class TestFairness:
    @given(counts=st.tuples(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
    ))
    def test_rr_serves_both_queues_interleaved(self, counts):
        n1, n2 = counts
        sim, a, b, _ = make_pair()
        port = a.ports[0]
        port.pause()  # fill while paused so RR state is exercised
        for i in range(n1):
            port.enqueue(data(1000, 100 + i), 3)
        for i in range(n2):
            port.enqueue(data(1000, 200 + i), 4)
        port.resume()
        sim.run()
        seqs = [p.seq for _, p in b.received]
        assert len(seqs) == n1 + n2
        # within any prefix, the two queues differ by at most ~1 until
        # one drains (round-robin fairness)
        for k in range(1, min(n1, n2) * 2 + 1):
            q1 = sum(1 for s in seqs[:k] if s < 200)
            q2 = sum(1 for s in seqs[:k] if s >= 200)
            assert abs(q1 - q2) <= 1
