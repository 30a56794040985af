"""Switch forwarding, ECN, buffer pressure, and PFC generation."""

from repro.net.ecn import EcnConfig, EcnMarker
from repro.net.packet import PacketKind
from repro.sim.rng import RngRegistry
from repro.units import ms
from tests.conftest import MiniNet


class TestForwarding:
    def test_cross_rack_delivery(self, mini):
        f = mini.flow(1, 0, 6, 10_000)
        mini.run(ms(5))
        assert f.receiver_done

    def test_ack_rides_high_priority(self, leaf_spine):
        """ACK-like packets are never buffer-accounted at switches."""
        f = leaf_spine.flow(1, 0, 8, 50_000)
        leaf_spine.run(ms(5))
        assert f.receiver_done
        assert leaf_spine.all_buffers_empty()

    def test_hop_count_increments(self, leaf_spine):
        """The INT stack grows by one record per switch hop."""
        received = []
        dst_host = leaf_spine.topo.hosts[8]
        original = dst_host.receive
        leaf_spine.topo.hosts[0].int_enabled = True

        def spy(pkt, port):
            if pkt.kind == PacketKind.DATA:
                received.append(len(pkt.int_records))
            original(pkt, port)

        dst_host.receive = spy
        leaf_spine.flow(1, 0, 8, 5_000)
        leaf_spine.run(ms(5))
        assert received and all(h == 3 for h in received)  # tor,spine,tor


class TestEcnMarking:
    def test_marks_above_kmax(self):
        marker = EcnMarker(EcnConfig(1000, 2000, 1.0), RngRegistry(1), "ecn:s")
        assert marker.should_mark(5000)

    def test_never_marks_below_kmin(self):
        marker = EcnMarker(EcnConfig(1000, 2000, 1.0), RngRegistry(1), "ecn:s")
        assert not any(marker.should_mark(999) for _ in range(100))

    def test_probability_ramps_between(self):
        marker = EcnMarker(EcnConfig(0, 100_000, 1.0), RngRegistry(1), "ecn:s")
        low = sum(marker.should_mark(10_000) for _ in range(2000))
        high = sum(marker.should_mark(90_000) for _ in range(2000))
        assert low < high

    def test_invalid_config_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            EcnConfig(200, 100)
        with pytest.raises(ValueError):
            EcnConfig(0, 0, pmax=2.0)

    def test_switch_marks_under_congestion(self):
        net = MiniNet(pfc=False)
        for sw in net.topo.switches:
            sw.ecn = EcnMarker(
                EcnConfig(5_000, 20_000, 1.0), RngRegistry(3), f"ecn:{sw.name}"
            )
        # 4-to-1 incast overloads the receiver's port
        for i, src in enumerate((0, 1, 2, 3)):
            net.flow(i, src, 6, 40_000)
        marked = []
        dst = net.topo.hosts[6]
        original = dst.receive

        def spy(pkt, port):
            if pkt.kind == PacketKind.DATA and pkt.ecn_marked:
                marked.append(pkt)
            original(pkt, port)

        dst.receive = spy
        net.run(ms(10))
        assert marked


class TestBufferPressure:
    def test_drops_when_pool_full_without_pfc(self):
        net = MiniNet(pfc=False, buffer_bytes=30_000)
        for i, src in enumerate((0, 1, 2, 3)):
            net.flow(i, src, 6, 60_000)
        net.run(ms(1))
        assert net.stats.packets_dropped > 0

    def test_pfc_prevents_drops(self):
        # alpha=0.5 pauses early enough to absorb a synchronized burst
        # of 4 full sending windows into a 200 KB pool
        net = MiniNet(pfc=True, pfc_alpha=0.5, buffer_bytes=200_000)
        flows = [net.flow(i, src, 6, 60_000) for i, src in enumerate((0, 1, 2, 3))]
        net.run(ms(50))
        assert net.stats.packets_dropped == 0
        assert net.stats.pfc_pause_events > 0
        assert all(f.receiver_done for f in flows)

    def test_buffers_empty_after_drain(self):
        net = MiniNet(buffer_bytes=50_000)
        flows = [net.flow(i, src, 6, 50_000) for i, src in enumerate((0, 1, 2))]
        net.run(ms(50))
        assert all(f.receiver_done for f in flows)
        assert net.all_buffers_empty()

    def test_max_buffer_recorded(self):
        net = MiniNet()
        net.flow(1, 0, 6, 50_000)
        net.run(ms(5))
        net.topo.report_to_hub()
        assert net.stats.max_switch_buffer > 0


class TestPfcAccounting:
    def test_pause_time_reported_by_kind(self):
        net = MiniNet(buffer_bytes=30_000)
        for i, src in enumerate((0, 1, 2, 3)):
            net.flow(i, src, 6, 60_000)
        net.run(ms(50))
        net.topo.report_to_hub()
        total = sum(net.stats.pfc_paused_time.values())
        assert total > 0

    def test_queuing_time_recorded_by_role(self):
        net = MiniNet()
        net.flow(1, 0, 6, 50_000)
        net.run(ms(5))
        net.topo.report_to_hub()
        assert net.stats.avg_queuing_by_role("tor-up") >= 0
        # data crossed the trunk, so the tor-up role saw packets
        assert ("torL", "tor-up") in net.stats.port_max_buffer
