"""Topology builders and routing."""

import pytest

from repro.net.topology import PortRole


class TestLeafSpine:
    def test_counts(self, leaf_spine):
        topo = leaf_spine.topo
        assert len(topo.hosts) == 12
        assert len(topo.switches) == 5  # 2 spines + 3 ToRs
        assert len(topo.switches_of_kind("tor")) == 3
        assert len(topo.switches_of_kind("core")) == 2

    def test_every_switch_routes_to_every_host(self, leaf_spine):
        topo = leaf_spine.topo
        for sw in topo.switches:
            for host in topo.hosts:
                assert 0 <= sw.route_for_dst(host.node_id) < len(sw.ports)

    def test_connected_hosts_on_tors(self, leaf_spine):
        tors = leaf_spine.topo.switches_of_kind("tor")
        seen = set()
        for tor in tors:
            seen |= set(tor.connected_hosts)
            assert len(tor.connected_hosts) == 4
        assert seen == {h.node_id for h in leaf_spine.topo.hosts}

    def test_spines_have_no_connected_hosts(self, leaf_spine):
        for spine in leaf_spine.topo.switches_of_kind("core"):
            assert not spine.connected_hosts

    def test_port_roles(self, leaf_spine):
        tor = leaf_spine.topo.switches_of_kind("tor")[0]
        assert tor.port_roles.count(PortRole.TOR_DOWN) == 4
        assert tor.port_roles.count(PortRole.TOR_UP) == 2
        spine = leaf_spine.topo.switches_of_kind("core")[0]
        assert all(r == PortRole.CORE for r in spine.port_roles)

    def test_ecmp_entries_on_tors(self, leaf_spine):
        tor = leaf_spine.topo.switches_of_kind("tor")[0]
        remote = [
            h.node_id
            for h in leaf_spine.topo.hosts
            if h.node_id not in tor.connected_hosts
        ]
        # per-dst ECMP: the remote hosts spread over both spines
        ups = {i for i, role in enumerate(tor.port_roles) if role == PortRole.TOR_UP}
        assert {tor.route_for_dst(dst) for dst in remote} == ups

    def test_route_for_dst_deterministic(self, leaf_spine):
        tor = leaf_spine.topo.switches_of_kind("tor")[0]
        remote = next(
            h.node_id
            for h in leaf_spine.topo.hosts
            if h.node_id not in tor.connected_hosts
        )
        assert tor.route_for_dst(remote) == tor.route_for_dst(remote)

    def test_base_rtt_positive(self, leaf_spine):
        assert leaf_spine.topo.base_rtt > 0

    def test_levels(self, leaf_spine):
        assert all(s.level == 0 for s in leaf_spine.topo.switches_of_kind("tor"))
        assert all(
            s.level == 1 for s in leaf_spine.topo.switches_of_kind("core")
        )


#: a k=4 fat tree, 2 hosts per edge, 100 Gbps links of 600 ns
FAT_TREE_K4 = dict(
    fat_tree_k=4, hosts_per_edge=2, host_bandwidth=100e9, fabric_bandwidth=100e9,
    link_delay=600, host_link_delay=600,
)


class TestFatTree:
    @pytest.fixture
    def fat_tree(self):
        from repro.net.host import Host
        from repro.net.switch import Switch
        from repro.net.topology import build_fat_tree
        from repro.sim.engine import Simulator
        from repro.units import mb

        sim = Simulator()
        flow_table = {}

        def host_factory(sim, nid, name):
            return Host(sim, nid, name, None, flow_table, None)

        def switch_factory(sim, nid, name, kind, level):
            sw = Switch(sim, nid, name, mb(1), kind=kind)
            sw.level = level
            return sw

        return build_fat_tree(sim, host_factory, switch_factory, **FAT_TREE_K4)

    def test_k4_counts(self, fat_tree):
        # k=4: 4 pods x (2 edge + 2 agg) + 4 cores; 2 hosts x 8 edges
        assert len(fat_tree.hosts) == 16
        kinds = [s.kind for s in fat_tree.switches]
        assert kinds.count("tor") == 8
        assert kinds.count("agg") == 8
        assert kinds.count("core") == 4

    def test_all_pairs_reachable(self, fat_tree):
        for sw in fat_tree.switches:
            for host in fat_tree.hosts:
                assert 0 <= sw.route_for_dst(host.node_id) < len(sw.ports)

    def test_odd_k_rejected(self):
        from repro.net.topology import build_fat_tree

        with pytest.raises(ValueError):
            build_fat_tree(None, None, None, **{**FAT_TREE_K4, "fat_tree_k": 3})

    def test_levels_increase_toward_core(self, fat_tree):
        by_kind = {s.kind: s.level for s in fat_tree.switches}
        assert by_kind["tor"] < by_kind["agg"] < by_kind["core"]


class TestDumbbell:
    def test_structure(self, mini):
        assert len(mini.topo.hosts) == 8
        assert len(mini.topo.switches) == 2

    def test_cross_rack_route_uses_trunk(self, mini):
        left = mini.topo.switches[0]
        assert left.route_for_dst(6) == 4  # port 4 = trunk (after hosts)

    def test_local_route_direct(self, mini):
        left = mini.topo.switches[0]
        assert left.route_for_dst(1) == left.connected_hosts[1]


class TestSingleHomed:
    @staticmethod
    def _fabric(n_links: int):
        from repro.cc.base import CcAlgorithm
        from repro.net.host import Host
        from repro.net.switch import Switch
        from repro.net.topology import SWITCH_ID_BASE, Topology
        from repro.sim.engine import Simulator
        from repro.units import gbps, kb, mb, us

        sim = Simulator()
        topo = Topology(sim)
        cc = CcAlgorithm(gbps(10), kb(30), us(10))
        host = Host(sim, 0, "h0", cc, topo.flow_table, None)
        topo.hosts.append(host)
        for i in range(2):
            sw = Switch(sim, SWITCH_ID_BASE + i, f"tor{i}", mb(1), kind="tor")
            topo.switches.append(sw)
            if i < n_links:
                topo.connect(sw, host, gbps(10), 500)
        return topo

    def test_one_link_per_host_builds(self):
        topo = self._fabric(1)
        topo.finalize()
        assert topo.switches[0].route_for_dst(0) == 0

    @pytest.mark.parametrize("n_links", [0, 2])
    def test_finalize_rejects_a_host_without_exactly_one_link(self, n_links):
        topo = self._fabric(n_links)
        with pytest.raises(ValueError, match=f"host h0 has {n_links} links"):
            topo.finalize()


class TestFlowRegistration:
    def test_make_flow_registers(self, mini):
        f = mini.topo.make_flow(5, 0, 4, 1000, 0)
        assert mini.topo.flow_table[5] is f


def _asymmetric_fabric():
    """The hand-built 2/2/6-host fabric of ``examples/custom_topology.py``."""
    from repro.net.host import Host
    from repro.net.switch import Switch
    from repro.net.topology import SWITCH_ID_BASE, Topology
    from repro.sim.engine import Simulator
    from repro.units import gbps, mb

    sim = Simulator()
    topo = Topology(sim)
    spine = Switch(sim, SWITCH_ID_BASE, "spine", mb(1), kind="core")
    spine.level = 1
    topo.switches.append(spine)
    host_id = 0
    for t, size in enumerate([2, 2, 6]):
        tor = Switch(sim, SWITCH_ID_BASE + 1 + t, f"tor{t}", mb(1), kind="tor")
        topo.switches.append(tor)
        for _ in range(size):
            host = Host(sim, host_id, f"h{host_id}", None, topo.flow_table, None)
            topo.hosts.append(host)
            topo.connect(tor, host, gbps(10), 3_000)
            host_id += 1
        topo.connect(tor, spine, gbps(25), 500)
    topo.finalize()
    return topo, None


def _scenario_fabric(topology: str):
    def build():
        from repro.experiments.scenario import Scenario, ScenarioConfig

        sc = Scenario(ScenarioConfig(topology=topology, pattern="none"))
        return sc.topology, sc

    return build


class TestRackMap:
    @pytest.mark.parametrize(
        "build, rack_sizes",
        [
            (_scenario_fabric("leaf-spine"), [8] * 4),  # CI n_tors x hosts_per_tor
            (_scenario_fabric("fat-tree"), [2] * 8),  # k=4: 8 edges x 2 hosts
            (_scenario_fabric("testbed"), [2] * 3),
            (_scenario_fabric("dumbbell"), [8] * 2),  # CI hosts_per_tor per side
            (_asymmetric_fabric, [2, 2, 6]),
        ],
        ids=["leaf-spine", "fat-tree", "testbed", "dumbbell", "asymmetric"],
    )
    def test_one_map_built_at_finalize(self, build, rack_sizes):
        topo, sc = build()
        assert topo.racks == [s for s in topo.switches if s.level == 0]
        assert [len(tor.connected_hosts) for tor in topo.racks] == rack_sizes
        # every host once, rack by rack, in its ToR's connected_hosts order
        assert list(topo.rack_of.items()) == [
            (host_id, rack)
            for rack, tor in enumerate(topo.racks)
            for host_id in tor.connected_hosts
        ]
        assert sorted(topo.rack_of) == sorted(h.node_id for h in topo.hosts)
        for host in topo.hosts:
            assert topo.racks[topo.rack_of[host.node_id]] is host.links[0].peer_of(host)
        if sc is not None:
            assert sc.rack_of() is sc.rack_of() is topo.rack_of
