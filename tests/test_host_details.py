"""Host transport details: pacing, RTO behaviour."""

from repro.net.packet import PacketKind
from repro.telemetry.profile import EngineProfiler
from repro.units import gbps, ms, us
from tests.conftest import MiniNet


def acks_seen_by(host) -> list:
    """The live list of ACK seqs ``host`` receives from now on."""
    seen = []
    original = host._receive_ack

    def spy(pkt):
        seen.append(pkt.seq)
        original(pkt)

    host._receive_ack = spy
    return seen


class TestPacing:
    def test_rate_limit_spreads_packets(self):
        net = MiniNet()
        host = net.topo.hosts[0]
        received = []
        dst_host = net.topo.hosts[4]
        original = dst_host.receive

        def spy(pkt, port):
            if pkt.kind == PacketKind.DATA:
                received.append(net.sim.now)
            original(pkt, port)

        dst_host.receive = spy
        f = net.topo.make_flow(1, 0, 4, 20_000, 0)
        net.topo.start_flow(f)
        net.run(us(2))  # let the flow start (CC sets the line rate)
        f.rate = gbps(1)  # then throttle to 10x slower
        host._kick(f)
        net.run(ms(10))
        gaps = [b - a for a, b in zip(received, received[1:], strict=False)]
        # at 1 Gbps a 1000 B packet takes 8 us; check the paced tail
        assert gaps and min(gaps[5:]) >= us(7)

    def test_line_rate_flow_is_back_to_back(self):
        net = MiniNet()
        received = []
        dst_host = net.topo.hosts[4]
        original = dst_host.receive

        def spy(pkt, port):
            if pkt.kind == PacketKind.DATA:
                received.append(net.sim.now)
            original(pkt, port)

        dst_host.receive = spy
        net.flow(1, 0, 4, 10_000)
        net.run(ms(5))
        gaps = [b - a for a, b in zip(received, received[1:], strict=False)]
        # 1000 B at 10 Gbps = 800 ns
        assert gaps and max(gaps) <= us(2)


class TestRto:
    def test_rto_rewinds_to_cumulative_ack(self):
        net = MiniNet()
        host = net.topo.hosts[0]
        f = net.topo.make_flow(1, 0, 4, 50_000, 0)
        net.topo.start_flow(f)
        net.run(us(5))
        # pretend everything in flight vanished
        sent_before = f.next_seq
        f.acked_seq = 2
        host._on_rto(f)
        # the rewind restarted from seq 2 (the kick may already have
        # re-emitted the first packet synchronously)
        assert f.next_seq <= 3
        assert f.retransmitted_packets >= sent_before - 2

    def test_rto_noop_when_fully_acked(self):
        net = MiniNet()
        f = net.flow(1, 0, 4, 5_000)
        net.run(ms(5))
        host = net.topo.hosts[0]
        retx_before = f.retransmitted_packets
        host._on_rto(f)
        assert f.retransmitted_packets == retx_before

    def test_rto_timer_stopped_after_completion(self):
        net = MiniNet()
        f = net.flow(1, 0, 4, 5_000)
        net.run(ms(5))
        assert f.rto_timer is not None
        assert not f.rto_timer.armed


    def test_ack_clocked_flow_keeps_the_heap_shallow(self):
        """Every new cumulative ACK re-arms the RTO.  With a timer that
        cancels and reschedules, each of them leaves a dead entry in the
        heap until its 500 us lapse — depth grows with the packet count
        (202 for this flow).  The lazy timer rides one carrier."""
        net = MiniNet()
        profiler = EngineProfiler()
        net.sim.set_profiler(profiler)
        acks = acks_seen_by(net.topo.hosts[0])
        f = net.flow(1, 0, 4, 200_000)
        net.run(ms(5))
        assert f.sender_done and len(acks) == 200
        # a 30 KB window in flight, its ACKs, one tick, one carrier
        assert profiler.max_heap_depth <= 16


class TestStartFlowValidation:
    def test_wrong_source_rejected(self):
        net = MiniNet()
        host = net.topo.hosts[0]
        from repro.cc.flow import Flow

        foreign = Flow(9, 3, 4, 1000)
        import pytest

        with pytest.raises(ValueError):
            host.start_flow(foreign)
