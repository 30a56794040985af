"""NDP baseline: trimming, pulls, out-of-order assembly."""

from types import SimpleNamespace

from repro.baselines.ndp import NdpHost, install
from repro.cc.base import CcAlgorithm
from repro.net.packet import Packet, PacketKind
from repro.net.switch import Switch
from repro.net.topology import build_leaf_spine
from repro.sim.engine import Simulator
from repro.stats.collector import StatsHub
from repro.units import MTU, gbps, kb, mb, ms, us


def build(trim_threshold=4 * MTU):
    sim = Simulator()
    stats = StatsHub()
    flow_table = {}
    cc = CcAlgorithm(gbps(10), kb(30), us(10))

    def host_factory(s, nid, name):
        h = NdpHost(s, nid, name, cc, flow_table, stats=stats)
        h.rto = us(500)
        return h

    def switch_factory(s, nid, name, kind, level):
        sw = Switch(s, nid, name, mb(1), kind=kind, pfc_enabled=False, stats=stats)
        sw.level = level
        return sw

    topo = build_leaf_spine(
        sim,
        host_factory,
        switch_factory,
        n_spines=2,
        n_tors=3,
        hosts_per_tor=4,
        host_bandwidth=gbps(10),
        fabric_bandwidth=gbps(40),
        link_delay=600,
        host_link_delay=600,
    )
    topo.flow_table = flow_table
    exts = []
    install(
        SimpleNamespace(
            sim=sim, topology=topo, base_rtt=topo.base_rtt, extensions=exts
        )
    )
    for ext in exts:
        ext.trim_threshold = trim_threshold
    return sim, topo, exts, stats


class TestBasics:
    def test_single_flow_completes(self):
        sim, topo, exts, stats = build()
        f = topo.make_flow(1, 4, 0, 50_000, 0)
        topo.start_flow(f)
        sim.run(until=ms(10))
        assert f.receiver_done
        assert stats.fct_records and stats.fct_records[0].flow_id == 1

    def test_no_trimming_without_congestion(self):
        sim, topo, exts, _ = build()
        f = topo.make_flow(1, 4, 0, 50_000, 0)
        topo.start_flow(f)
        sim.run(until=ms(10))
        assert sum(e.trimmed_packets for e in exts) == 0

    def test_sub_window_flow_is_pure_unscheduled(self):
        sim, topo, exts, _ = build()
        host = topo.hosts[4]
        f = topo.make_flow(1, 4, 0, 3_000, 0)
        topo.start_flow(f)
        sim.run(until=ms(5))
        assert f.receiver_done
        assert f.cc.rx_pulls_sent == 0


class TestTrimming:
    def test_incast_triggers_trimming(self):
        sim, topo, exts, _ = build()
        flows = [
            topo.make_flow(i, src, 0, 40_000, 0)
            for i, src in enumerate((4, 5, 6, 7, 8, 9, 10, 11))
        ]
        for f in flows:
            topo.start_flow(f)
        sim.run(until=ms(50))
        assert sum(e.trimmed_packets for e in exts) > 0
        assert all(f.receiver_done for f in flows)

    def test_shallow_queues_under_incast(self):
        sim, topo, exts, stats = build()
        for i, src in enumerate((4, 5, 6, 7, 8, 9, 10, 11)):
            topo.start_flow(topo.make_flow(i, src, 0, 40_000, 0))
        sim.run(until=ms(50))
        topo.report_to_hub()
        # trimming caps data queues near the threshold
        assert stats.max_switch_buffer < 100_000

    def test_trimmed_packets_are_retransmitted_exactly(self):
        sim, topo, exts, _ = build(trim_threshold=2 * MTU)
        flows = [
            topo.make_flow(i, src, 0, 40_000, 0)
            for i, src in enumerate((4, 5, 6, 7))
        ]
        for f in flows:
            topo.start_flow(f)
        sim.run(until=ms(50))
        for f in flows:
            assert f.delivered_bytes == f.size  # no holes, no dupes


class TestReceiverDriven:
    def test_pulls_issued_for_large_flows(self):
        sim, topo, exts, _ = build()
        f = topo.make_flow(1, 4, 0, 100_000, 0)
        topo.start_flow(f)
        sim.run(until=ms(20))
        assert f.receiver_done
        assert f.cc.rx_pulls_sent > 0

    def test_out_of_order_assembly(self):
        """NDP receivers accept any order (no go-back-N)."""
        sim, topo, exts, _ = build()
        host = topo.hosts[0]
        f = topo.make_flow(1, 4, 0, 5_000, 0)
        f.cc.retx = []  # mark sender state to satisfy dispatch
        for seq in (4, 2, 0, 3, 1):
            pkt = Packet(PacketKind.DATA, 4, 0, 1000, flow_id=1, seq=seq)
            host.receive(pkt, 0)
        assert f.receiver_done
        assert f.delivered_bytes == 5_000
