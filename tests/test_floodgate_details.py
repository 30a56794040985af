"""Floodgate corner-case behaviours: grouping, tagging, overflow."""

from repro.floodgate.config import FloodgateConfig
from repro.floodgate.extension import FloodgateExtension
from repro.floodgate.voq import GROUP_DOWN, GROUP_UP, group_of
from repro.net.host import Host
from repro.net.packet import Packet, PacketKind
from repro.net.switch import Switch
from repro.net.topology import build_fat_tree
from repro.sim.engine import Simulator
from repro.stats.collector import StatsHub
from repro.units import gbps, kb, mb, ms, us
from tests.conftest import MiniNet
from tests.test_floodgate_extension import with_floodgate


def build_fat_tree_net():
    sim = Simulator()
    stats = StatsHub()
    flow_table = {}
    from repro.cc.base import CcAlgorithm

    cc = CcAlgorithm(gbps(10), kb(30), us(10))

    def host_factory(s, nid, name):
        return Host(s, nid, name, cc, flow_table, stats=stats)

    def switch_factory(s, nid, name, kind, level):
        sw = Switch(s, nid, name, mb(1), kind=kind, stats=stats)
        sw.level = level
        return sw

    topo = build_fat_tree(
        sim,
        host_factory,
        switch_factory,
        fat_tree_k=4,
        hosts_per_edge=2,
        host_bandwidth=gbps(10),
        fabric_bandwidth=gbps(10),
        link_delay=600,
        host_link_delay=600,
    )
    topo.flow_table = flow_table
    config = FloodgateConfig(credit_timer=us(2))
    exts = []
    for sw in topo.switches:
        ext = FloodgateExtension(sim, config, False, False, 64_000, 640_000)
        sw.install_extension(ext)
        exts.append(ext)
    return sim, topo, exts, stats


class TestVoqGrouping:
    def test_agg_switch_distinguishes_up_and_down(self):
        sim, topo, exts, _ = build_fat_tree_net()
        aggs = topo.switches_of_kind("agg")
        agg = aggs[0]
        # a destination inside this pod: next hop is an edge (down)
        pod_host = next(iter(
            topo.switches_of_kind("tor")[0].connected_hosts
        ))
        down_port = agg.route_for_dst(pod_host)
        assert group_of(agg, down_port) == GROUP_DOWN
        # a destination in another pod: next hop is a core (up)
        remote_host = topo.hosts[-1].node_id
        up_port = agg.route_for_dst(remote_host)
        assert group_of(agg, up_port) == GROUP_UP

    def test_tor_sends_everything_up(self):
        net = MiniNet("leaf-spine")
        exts = with_floodgate(net)
        tor = net.topo.switches_of_kind("tor")[0]
        remote = 11  # another rack
        assert group_of(tor, tor.route_for_dst(remote)) == GROUP_UP

    def test_spine_sends_everything_down(self):
        net = MiniNet("leaf-spine")
        exts = with_floodgate(net)
        spine = net.topo.switches_of_kind("core")[0]
        assert group_of(spine, spine.route_for_dst(0)) == GROUP_DOWN

    def test_cross_pod_fat_tree_traffic_completes(self):
        sim, topo, exts, _ = build_fat_tree_net()
        flows = []
        # pod A -> pod D and back, several flows each way
        n = len(topo.hosts)
        fid = 0
        for i in range(4):
            f = topo.make_flow(fid, i, n - 1 - i, 40_000, 0)
            topo.start_flow(f)
            flows.append(f)
            fid += 1
            g = topo.make_flow(fid, n - 1 - i, i, 40_000, 0)
            topo.start_flow(g)
            flows.append(g)
            fid += 1
        sim.run(until=ms(50))
        assert all(f.receiver_done for f in flows)


class TestIncastTagging:
    def test_voq_packets_tagged_no_win(self):
        net = MiniNet("leaf-spine")
        exts = with_floodgate(net)
        tor = net.topo.switches_of_kind("tor")[1]
        ext = tor.extension
        dst = 0
        out = tor.route_for_dst(dst)
        win = ext._initial_window(dst)
        # exhaust the window by hand, then park a packet
        ext.windows.ensure(dst, win)
        ext.windows.window[dst] = 0
        pkt = Packet(PacketKind.DATA, 4, dst, 1000, flow_id=1, seq=0)
        pkt.ingress_port = tor.connected_hosts[4]
        assert ext.on_data(pkt, pkt.ingress_port, out)
        assert pkt.no_win
        assert ext.pool.dst_backlog(dst) == 1000

    def test_adjusted_qlen_for_incast_packets(self):
        net = MiniNet("leaf-spine")
        exts = with_floodgate(net)
        tor = net.topo.switches_of_kind("tor")[1]
        ext = tor.extension
        port = tor.ports[tor.route_for_dst(0)]
        plain = Packet(PacketKind.DATA, 4, 0, 1000)
        assert ext.adjusted_qlen(plain, port) is None
        tagged = Packet(PacketKind.DATA, 4, 0, 1000)
        tagged.no_win = True
        assert ext.adjusted_qlen(tagged, port) is not None

    def test_overflow_bypass_counts(self):
        net = MiniNet("leaf-spine")
        exts = with_floodgate(net, max_voqs=1)
        tor = net.topo.switches_of_kind("tor")[1]
        ext = tor.extension
        # occupy the only VOQ with a DOWN-group allocation (forced)
        voq = ext.pool.allocate(999, GROUP_DOWN)
        assert voq is not None
        # now exhaust a window so a packet needs an UP-group VOQ
        dst = 0
        win = ext._initial_window(dst)
        ext.windows.ensure(dst, win)
        ext.windows.window[dst] = 0
        pkt = Packet(PacketKind.DATA, 4, dst, 1000, flow_id=1, seq=0)
        pkt.ingress_port = tor.connected_hosts[4]
        ext.on_data(pkt, pkt.ingress_port, tor.route_for_dst(dst))
        assert ext.pool.overflow_bypasses == 1


class TestCreditIntegration:
    def test_credit_packets_carry_dst_and_count(self):
        net = MiniNet("leaf-spine")
        exts = with_floodgate(net, credit_timer=us(5))
        seen = []
        spine = net.topo.switches_of_kind("core")[0]
        original = spine.receive

        def spy(pkt, port):
            if pkt.kind == PacketKind.CREDIT:
                seen.append(pkt)
            original(pkt, port)

        spine.receive = spy
        net.flow(1, 4, 0, 40_000)
        net.run(ms(10))
        assert seen
        for credit in seen:
            assert credit.credits and credit.credits[0][0] == 0
            assert credit.credits[0][1] >= 1
            assert credit.last_psn >= 0

    def test_host_facing_ports_never_send_credits(self):
        net = MiniNet("leaf-spine")
        exts = with_floodgate(net)
        host = net.topo.hosts[4]
        received_credit = []
        original = host.receive

        def spy(pkt, port):
            if pkt.kind == PacketKind.CREDIT:
                received_credit.append(pkt)
            original(pkt, port)

        host.receive = spy
        net.flow(1, 4, 0, 40_000)
        net.run(ms(10))
        assert received_credit == []
