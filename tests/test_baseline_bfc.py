"""BFC baseline: queue assignment, pause propagation, host queues."""

from types import SimpleNamespace

from repro.baselines.bfc import BfcHost, install
from repro.cc.base import CcAlgorithm
from repro.net.switch import Switch
from repro.net.topology import build_leaf_spine
from repro.sim.engine import Simulator
from repro.stats.collector import StatsHub
from repro.units import gbps, kb, mb, ms, us


def build(n_queues=8, base_bdp=10_000):
    """A leaf-spine with BFC installed; switches pause an upstream queue
    at ``base_bdp`` bytes."""
    sim = Simulator()
    stats = StatsHub()
    flow_table = {}
    cc = CcAlgorithm(gbps(10), kb(30), us(10))

    def host_factory(s, nid, name):
        return BfcHost(s, nid, name, cc, flow_table, stats=stats)

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
    extensions = []
    install(
        SimpleNamespace(
            sim=sim,
            topology=topo,
            config=SimpleNamespace(bfc_queues=n_queues),
            base_bdp=base_bdp,
            extensions=extensions,
        )
    )
    return sim, topo, extensions, stats


class TestQueueAssignment:
    def test_flows_to_different_queues_when_free(self):
        sim, topo, exts, _ = build(n_queues=8)
        tor = topo.switches_of_kind("tor")[1]
        ext = tor.extension
        q1 = ext._queue_for(0, ext._fid_of(101))
        ext.queue_state[0][q1].last_enqueue = sim.now
        tor.ports[0].queue_bytes[q1] += 1  # make it look occupied
        q2 = ext._queue_for(0, ext._fid_of(202))
        assert q1 != q2

    def test_assignment_is_sticky_while_occupied(self):
        sim, topo, exts, _ = build()
        ext = topo.switches[0].extension
        fid = ext._fid_of(101)
        q = ext._queue_for(0, fid)
        topo.switches[0].ports[0].queue_bytes[q] += 1
        assert ext._queue_for(0, fid) == q

    def test_hash_fallback_when_all_queues_busy(self):
        sim, topo, exts, _ = build(n_queues=2)
        sw = topo.switches[0]
        ext = sw.extension
        first = ext.first_queue[0]
        # occupy both queues with bound, non-empty flows
        for q in range(first, first + 2):
            ext._bind(0, 9000 + q, q)
            ext.queue_state[0][q].last_enqueue = sim.now
            sw.ports[0].queue_bytes[q] += 1
        q = ext._queue_for(0, ext._fid_of(777))
        assert first <= q < first + 2
        assert ext.collisions >= 1

    def test_ideal_mode_unbounded_queues(self):
        sim, topo, exts, _ = build(n_queues=0)
        sw = topo.switches[0]
        ext = sw.extension
        queues = {ext._queue_for(0, fid) for fid in range(20)}
        assert len(queues) == 20  # every flow its own queue


class TestEndToEnd:
    def test_incast_completes(self):
        sim, topo, exts, stats = build()
        flows = []
        for i, src in enumerate((4, 5, 6, 7, 8, 9, 10, 11)):
            f = topo.make_flow(i, src, 0, 40_000, 0)
            topo.start_flow(f)
            flows.append(f)
        sim.run(until=ms(50))
        assert all(f.receiver_done for f in flows)

    def test_pause_frames_generated_under_incast(self):
        sim, topo, exts, stats = build(base_bdp=5_000)
        for i, src in enumerate((4, 5, 6, 7, 8, 9, 10, 11)):
            topo.start_flow(topo.make_flow(i, src, 0, 40_000, 0))
        sim.run(until=ms(50))
        assert sum(e.pauses_sent for e in exts) > 0

    def test_mixed_traffic_completes(self):
        sim, topo, exts, stats = build()
        flows = []
        fid = 0
        for src in (4, 5, 6, 7):
            f = topo.make_flow(fid, src, 0, 40_000, 0)
            topo.start_flow(f)
            flows.append(f)
            fid += 1
        for src, dst in ((8, 1), (9, 2), (10, 3), (11, 5)):
            f = topo.make_flow(fid, src, dst, 30_000, 0)
            topo.start_flow(f)
            flows.append(f)
            fid += 1
        sim.run(until=ms(50))
        assert all(f.receiver_done for f in flows)

    def test_no_buffer_leak(self):
        sim, topo, exts, stats = build()
        for i, src in enumerate((4, 5, 6, 7)):
            topo.start_flow(topo.make_flow(i, src, 0, 40_000, 0))
        sim.run(until=ms(50))
        assert all(sw.buffer.used == 0 for sw in topo.switches)


class TestHostSide:
    def test_host_stamps_queue_on_packets(self):
        sim, topo, exts, _ = build()
        host = topo.hosts[4]
        f = topo.make_flow(1, 4, 0, 5_000, 0)
        topo.start_flow(f)
        sim.run(until=us(5))
        # inspect packets sitting in the host NIC queue
        stamped = [
            p.upstream_queue
            for p in host.ports[0].queues[1]
        ]
        expected = host._pause_key_of(f)
        assert all(q == expected for q in stamped) or stamped == []

    def test_paused_host_queue_blocks_flow(self):
        sim, topo, exts, _ = build()
        host = topo.hosts[4]
        f = topo.make_flow(1, 4, 0, 50_000, 0)
        q = host._pause_key_of(f)
        host.paused_keys = {q}
        topo.start_flow(f)
        sim.run(until=ms(2))
        assert not f.receiver_done
        host.paused_keys.discard(q)
        host._kick(f)
        sim.run(until=ms(20))
        assert f.receiver_done
