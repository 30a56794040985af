"""A run pays for what it touches: routes and VOQ slots on first use.

Routes are held ``==`` to the eager build (``tests/build_pr26.py``) on
every registry topology, and the grown-on-demand VOQ pool to the
prebuilt one; the counts say what a build and a run leave behind.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import build_pr26
from repro.experiments import Scenario, ScenarioConfig, registry, run_scenario
from repro.floodgate.voq import VoqPool
from repro.net.packet import Packet, PacketKind
from repro.sim.sharded import run_domains
from repro.simcheck.isolation import ShardIsolationSanitizer
from repro.units import MTU
from repro.workloads.poisson import FlowSpec

_TOPOLOGY_FIELDS = (
    "topology", "n_tors", "hosts_per_tor", "n_spines", "fat_tree_k", "hosts_per_edge",
)


def _fabric(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg``'s fabric with no traffic."""
    return ScenarioConfig(
        pattern="none", **{name: getattr(cfg, name) for name in _TOPOLOGY_FIELDS}
    )


def _fabrics():
    """Every registry fabric, fat-tree k = 4 / 8 / 12, testbed, dumbbell."""
    configs = [_fabric(cfg) for name in registry.names() for cfg in registry.get(name).configs]
    configs += [
        ScenarioConfig(
            pattern="none", topology="fat-tree", fat_tree_k=k, hosts_per_edge=4
        )
        for k in (4, 8, 12)
    ]
    configs += [
        ScenarioConfig(pattern="none", topology="testbed"),
        ScenarioConfig(pattern="none", topology="dumbbell"),
    ]
    unique = {tuple(getattr(c, f) for f in _TOPOLOGY_FIELDS): c for c in configs}
    return list(unique.values())


def _fabric_id(cfg: ScenarioConfig) -> str:
    if cfg.topology == "fat-tree":
        return f"fat-tree-k{cfg.fat_tree_k}"
    return f"{cfg.topology}-{cfg.n_tors}x{cfg.hosts_per_tor}"


def _tables(sw):
    return list(sw._route_flat), list(sw.connected_hosts.items())


def _routed(sw):
    """The destinations ``sw`` holds a pick for."""
    return [dst for dst, port in enumerate(sw._route_flat) if port >= 0]


def _lazy_and_eager(cfg):
    lazy = Scenario(cfg).topology
    eager = Scenario(cfg).topology
    build_pr26.install_eager_routes(eager)
    return lazy, eager


class TestRoutesOnFirstLookup:
    @pytest.mark.parametrize("cfg", _fabrics(), ids=_fabric_id)
    def test_every_resolved_entry_equals_the_eager_one(self, cfg):
        lazy, eager = _lazy_and_eager(cfg)
        for sw_lazy, sw_eager in zip(lazy.switches, eager.switches, strict=True):
            for host in lazy.hosts:
                port = sw_lazy.route_for_dst(host.node_id)
                assert port == sw_eager._route_flat[host.node_id]
            assert _tables(sw_lazy) == _tables(sw_eager)

    def test_unknown_destination_still_raises(self):
        topo = Scenario(ScenarioConfig(pattern="none")).topology
        with pytest.raises(KeyError):
            topo.switches[0].route_for_dst(10_000)


class TestVoqPoolOnDemand:
    @settings(max_examples=150, deadline=None)
    @given(
        max_voqs=st.integers(1, 6),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["allocate", "push", "pop"]),
                st.integers(0, 11),
                st.integers(0, 1),
            ),
            max_size=120,
        ),
    )
    def test_same_slots_picks_and_counters_as_the_prebuilt_pool(self, max_voqs, ops):
        live, eager = VoqPool(max_voqs), build_pr26.eager_pool(max_voqs)

        def index(voq):
            return None if voq is None else voq.index

        for op, dst, group in ops:
            if op == "allocate" and dst not in live.voq_of_dst:
                got, want = live.allocate(dst, group), eager.allocate(dst, group)
                assert index(got) == index(want)
                if got is not None:  # the extension parks a packet at once
                    pkt = Packet(PacketKind.DATA, 0, dst, 100 + dst)
                    live.push(got, pkt)
                    eager.push(want, pkt)
            elif op == "push" and dst in live.voq_of_dst:
                pkt = Packet(PacketKind.DATA, 0, dst, 100 + dst)
                live.push(live.voq_of_dst[dst], pkt)
                eager.push(eager.voq_of_dst[dst], pkt)
            elif op == "pop":
                busy = sorted(v.index for v in live.voqs if v.packets)
                if busy:
                    i = busy[dst % len(busy)]
                    assert live.pop(live.voqs[i]) is eager.pop(eager.voqs[i])
            assert live.max_in_use == eager.max_in_use
            assert live.hash_fallbacks == eager.hash_fallbacks
            assert live.overflow_bypasses == eager.overflow_bypasses
            assert live.total_bytes() == eager.total_bytes()
            assert {d: v.index for d, v in live.voq_of_dst.items()} == {
                d: v.index for d, v in eager.voq_of_dst.items()
            }
        assert len(live.voqs) == live.max_in_use <= max_voqs


class TestBuildCounts:
    def test_fat_tree_build_routes_only_each_tors_own_hosts(self):
        sc = Scenario(
            ScenarioConfig(topology="fat-tree", fat_tree_k=8, hosts_per_edge=4)
        )
        topo = sc.topology
        assert sum(len(_routed(sw)) for sw in topo.switches) == len(topo.hosts)

    @pytest.mark.parametrize("flow_control", ["floodgate", "floodgate-ideal", "pfc-tag"])
    def test_build_holds_no_voq_slot(self, flow_control):
        sc = Scenario(ScenarioConfig(flow_control=flow_control))
        pools = [ext.pool for ext in sc.extensions]
        assert pools and all(pool.voqs == [] for pool in pools)

    def test_run_resolves_only_racks_its_flows_reach(self):
        result = run_scenario(
            replace(registry.get("quick").configs[0], flow_control="floodgate")
        )
        sc = result.scenario
        rack_of = sc.rack_of()
        # a flow's data path ends in its dst rack, its ACK path in its src rack
        reached = {rack_of[f.dst] for f in sc.flows} | {rack_of[f.src] for f in sc.flows}
        for sw in sc.topology.switches:
            assert {rack_of[dst] for dst in _routed(sw)} <= reached

    def test_untouched_racks_stay_unresolved(self):
        cfg = ScenarioConfig(pattern="none", n_tors=4, hosts_per_tor=4)
        sc = Scenario(cfg)
        sc.flows = [FlowSpec(flow_id=1, src=0, dst=5, size=20 * MTU, start_time=0)]
        result = run_scenario(cfg, scenario=sc)
        assert result.completed_flows == 1
        rack_of = sc.rack_of()
        assert rack_of[0] != rack_of[5]
        for sw in sc.topology.switches:
            resolved = {
                rack_of[dst] for dst in _routed(sw) if dst not in sw.connected_hosts
            }
            assert resolved <= {rack_of[0], rack_of[5]}


def test_isolation_tags_a_voq_created_mid_run(monkeypatch):
    isos = []
    tag_scenario = ShardIsolationSanitizer.tag_scenario

    def spy(self, scenario, domain_of):
        isos.append((self, domain_of))
        tag_scenario(self, scenario, domain_of)

    monkeypatch.setattr(ShardIsolationSanitizer, "tag_scenario", spy)
    cfg = replace(
        registry.get("quick").configs[0],
        flow_control="floodgate",
        shards=2,
        shard_mode="barrier",
    )
    sc = Scenario(cfg)
    assert all(ext.pool.voqs == [] for ext in sc.extensions)
    run = run_domains(sc, isolate=True)
    assert run.isolation_violations == []
    created = [(ext, voq) for ext in sc.extensions for voq in ext.pool.voqs]
    assert created, "the run parked no packet"
    assert isos
    for iso, domain_of in isos:
        for ext, voq in created:
            owner = iso._owner[id(voq)]
            assert owner == (domain_of[ext.switch.node_id], f"{ext.switch.name}.voq")
