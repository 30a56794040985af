"""PFC w/ tag baseline."""

from types import SimpleNamespace

from repro.baselines.pfc_tag import install
from repro.cc.base import CcAlgorithm
from repro.net.host import Host
from repro.net.switch import Switch
from repro.net.topology import build_leaf_spine
from repro.sim.engine import Simulator
from repro.stats.collector import StatsHub
from repro.units import gbps, kb, mb, ms, us


def build(base_bdp=10_000):
    """A leaf-spine with PFC w/ tag installed: it pauses at two
    ``base_bdp`` and resumes at one."""
    sim = Simulator()
    stats = StatsHub()
    flow_table = {}
    cc = CcAlgorithm(gbps(10), kb(30), us(10))

    def host_factory(s, nid, name):
        return Host(s, nid, name, cc, flow_table, stats=stats)

    def switch_factory(s, nid, name, kind, level):
        sw = Switch(s, nid, name, mb(1), kind=kind, stats=stats)
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
        SimpleNamespace(sim=sim, topology=topo, base_bdp=base_bdp, extensions=exts)
    )
    return sim, topo, exts, stats


class TestPauseGeneration:
    def test_incast_triggers_tagged_pause(self):
        sim, topo, exts, _ = build(base_bdp=5_000)
        flows = [
            topo.make_flow(i, src, 0, 40_000, 0)
            for i, src in enumerate((4, 5, 6, 7, 8, 9, 10, 11))
        ]
        for f in flows:
            topo.start_flow(f)
        sim.run(until=ms(50))
        assert sum(e.pauses_sent for e in exts) > 0
        assert all(f.receiver_done for f in flows)

    def test_paused_dst_parked_in_voq(self):
        sim, topo, exts, _ = build(base_bdp=5_000)
        for i, src in enumerate((4, 5, 6, 7, 8, 9, 10, 11)):
            topo.start_flow(topo.make_flow(i, src, 0, 40_000, 0))
        sim.run(until=ms(50))
        assert max(e.pool.max_in_use for e in exts) >= 1

    def test_no_pause_without_congestion(self):
        sim, topo, exts, _ = build()
        f = topo.make_flow(1, 4, 0, 50_000, 0)
        topo.start_flow(f)
        sim.run(until=ms(10))
        assert sum(e.pauses_sent for e in exts) == 0
        assert f.receiver_done

    def test_reduces_last_hop_buffer(self):
        plain_sim, plain_topo, _, plain_stats = build(base_bdp=1 << 40)
        for i, src in enumerate((4, 5, 6, 7, 8, 9, 10, 11)):
            plain_topo.start_flow(plain_topo.make_flow(i, src, 0, 40_000, 0))
        plain_sim.run(until=ms(50))
        plain_topo.report_to_hub()

        sim, topo, exts, stats = build(base_bdp=5_000)
        for i, src in enumerate((4, 5, 6, 7, 8, 9, 10, 11)):
            topo.start_flow(topo.make_flow(i, src, 0, 40_000, 0))
        sim.run(until=ms(50))
        topo.report_to_hub()
        assert (
            stats.max_port_buffer_by_role("tor-down")
            < plain_stats.max_port_buffer_by_role("tor-down")
        )

    def test_resume_releases_everything(self):
        sim, topo, exts, _ = build(base_bdp=5_000)
        flows = [
            topo.make_flow(i, src, 0, 40_000, 0)
            for i, src in enumerate((4, 5, 6, 7, 8, 9, 10, 11))
        ]
        for f in flows:
            topo.start_flow(f)
        sim.run(until=ms(100))
        assert all(f.receiver_done for f in flows)
        for ext in exts:
            assert ext.pool.total_bytes() == 0
            assert not ext.paused_dsts
        assert all(sw.buffer.used == 0 for sw in topo.switches)
