"""Sharded conservative-parallel execution: partitioning, config
restrictions, and byte-identical equivalence with the serial engine."""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle

import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults.plan import FaultPlan, LinkDown
from repro.rpc import RpcWorkloadSpec
from repro.experiments.runner import run_scenario
from repro.sim.sharded import (
    boundary_lookahead,
    partition_nodes,
    resolve_mode,
    run_domains,
)
from repro.simcheck.determinism import (
    check_sharded_equivalence,
    sharded_battery_fault_plan,
)
from repro.simcheck.sanitizer import SanitizerConfig
from repro.stats.scope import ScopeReport
from repro.telemetry.registry import TelemetryConfig
from repro.units import us
from repro.workloads.poisson import FlowSpec


def tiny_cfg(**kw) -> ScenarioConfig:
    params = dict(
        workload="websearch",
        cc="dcqcn",
        n_tors=4,
        hosts_per_tor=2,
        duration=us(200),
        seed=2,
    )
    params.update(kw)
    return ScenarioConfig(**params)


def rpc_cfg(**kw) -> ScenarioConfig:
    params = dict(
        pattern="rpc",
        rpc=RpcWorkloadSpec(
            n_clients=4,
            fan_out=3,
            think_time=us(10),
        ),
        flow_control="floodgate",
        cc="dcqcn",
        n_tors=4,
        hosts_per_tor=2,
        duration=us(400),
        seed=3,
    )
    params.update(kw)
    return ScenarioConfig(**params)


class TestPartition:
    def test_leaf_spine_hosts_follow_their_tor(self):
        sc = Scenario(tiny_cfg())
        domain = partition_nodes(sc, 2)
        topo = sc.topology
        assert set(domain.values()) == {0, 1}
        assert set(domain) == {
            n.node_id for n in (*topo.hosts, *topo.switches)
        }
        for host in topo.hosts:
            tor = host.links[0].peer_of(host)
            assert domain[host.node_id] == domain[tor.node_id]

    def test_tors_split_into_contiguous_groups(self):
        sc = Scenario(tiny_cfg())
        domain = partition_nodes(sc, 2)
        tors = [s for s in sc.topology.switches if s.level == 0]
        assert [domain[t.node_id] for t in tors] == [0, 0, 1, 1]

    def test_fat_tree_partitions_per_pod(self):
        sc = Scenario(
            ScenarioConfig(
                topology="fat-tree",
                fat_tree_k=4,
                hosts_per_edge=1,
                pattern="poisson",
                poisson_load=0.1,
                duration=us(200),
                seed=2,
            )
        )
        domain = partition_nodes(sc, 4)
        hosts_per_pod = 2  # k/2 edges x 1 host
        for host in sc.topology.hosts:
            assert domain[host.node_id] == host.node_id // hosts_per_pod
        # every non-core switch lives with its pod's hosts
        for sw in sc.topology.switches:
            if sw.level < 2:
                peers = {
                    domain[h.node_id]
                    for h in sc.topology.hosts
                    if domain[h.node_id] == domain[sw.node_id]
                }
                assert peers == {domain[sw.node_id]}

    def test_empty_domain_rejected(self):
        sc = Scenario(tiny_cfg(topology="dumbbell"))
        with pytest.raises(ValueError, match="empty"):
            partition_nodes(sc, 4)

    def test_lookahead_is_min_cross_domain_delay(self):
        sc = Scenario(tiny_cfg())
        domain = partition_nodes(sc, 2)
        cross = min(
            link.delay
            for link in sc.topology.links
            if domain[link.node_a.node_id] != domain[link.node_b.node_id]
        )
        assert boundary_lookahead(sc.topology, domain) == cross

    def test_lookahead_requires_a_boundary(self):
        sc = Scenario(tiny_cfg())
        all_home = {
            n.node_id: 0
            for n in (*sc.topology.hosts, *sc.topology.switches)
        }
        with pytest.raises(ValueError, match="cross a domain boundary"):
            boundary_lookahead(sc.topology, all_home)


class TestConfigRestrictions:
    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="positive integer"):
            tiny_cfg(shards=0)

    def test_unknown_shard_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown shard_mode"):
            tiny_cfg(shard_mode="threads")

    def test_flow_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity='packet'"):
            tiny_cfg(shards=2, fidelity="flow")

    def test_fault_plan_accepted(self):
        # faults run under shards now: installation is domain-local and
        # boundary-crossing plans are rejected at validation instead
        plan = FaultPlan((LinkDown(at=us(10), duration=us(20), link="host-switch"),))
        assert tiny_cfg(shards=2, fault_plan=plan).shards == 2

    def test_telemetry_accepted(self):
        assert tiny_cfg(shards=2, telemetry=TelemetryConfig()).shards == 2

    def test_sanitizer_accepted(self):
        assert tiny_cfg(shards=2, sanitize=SanitizerConfig()).shards == 2

    def test_boundary_fault_plan_rejected(self):
        # a selector pinned to a tor<->spine link crosses domains; the
        # sharded runner must refuse rather than silently diverge
        plan = FaultPlan((LinkDown(at=us(10), duration=us(20), link="switch-switch"),))
        cfg = tiny_cfg(shards=2, fault_plan=plan)
        with pytest.raises(ValueError, match="boundary"):
            run_scenario(cfg)

    def test_process_mode_rejects_stall_watchdog(self):
        plan = FaultPlan((), stall_window=us(50))
        cfg = tiny_cfg(shards=2, shard_mode="process", fault_plan=plan)
        with pytest.raises(ValueError, match="stall_window"):
            run_scenario(cfg)

    def test_auto_mode_resolution(self):
        # auto never picks the forked transport: it has measured
        # slower than barrier on every pattern
        assert resolve_mode(tiny_cfg(shards=2)) == "barrier"
        assert resolve_mode(rpc_cfg(shards=2)) == "barrier"

    def test_process_mode_rejects_rpc(self):
        cfg = rpc_cfg(shards=2, shard_mode="process")
        with pytest.raises(ValueError, match="shard_mode='process'"):
            resolve_mode(cfg)
        with pytest.raises(ValueError, match="shard_mode='process'"):
            run_scenario(cfg)


class TestEquivalence:
    def test_all_executors_match_serial(self):
        report = check_sharded_equivalence(tiny_cfg(), shards=2)
        assert set(report["modes"]) == {"lockstep", "barrier", "process"}
        for mode, rep in report["modes"].items():
            assert rep["events_identical"], mode
            assert rep["summary_identical"], mode
        assert report["ok"]

    def test_domain_digests_agree_across_executors(self):
        report = check_sharded_equivalence(
            tiny_cfg(flow_control="floodgate"), shards=2
        )
        digests = {
            mode: tuple(rep["domain_digests"])
            for mode, rep in report["modes"].items()
        }
        assert len(set(digests.values())) == 1
        assert report["ok"]

    def test_rpc_closed_loop_matches_serial(self):
        # the barrier executor is the only sharded path for closed-loop
        # rpc; its windows must replay the serial run byte-for-byte
        report = check_sharded_equivalence(rpc_cfg(), shards=2)
        assert set(report["modes"]) == {"lockstep", "barrier"}
        assert report["ok"]


def two_flow_scenario(**kw) -> Scenario:
    """Host 0 -> 7 at 10 us, 7 -> 0 at 110 us: one sender per domain,
    and a run that lasts two ``CHECK_INTERVAL`` sweeps."""
    sc = Scenario(tiny_cfg(pattern="none", shards=2, **kw))
    sc.flows = [
        FlowSpec(flow_id=1, src=0, dst=7, size=50_000, start_time=us(10)),
        FlowSpec(flow_id=2, src=7, dst=0, size=50_000, start_time=us(110)),
    ]
    return sc


class TestOneOutcomePath:
    def test_plain_result_fields_agree_across_executors(self):
        # max_voqs_used / retransmitted_packets / the injected fault
        # counts are hub rows each scope collects and the merge folds:
        # one report (serial) and two (barrier, forked) must agree
        cfg = tiny_cfg(
            flow_control="floodgate",
            fault_plan=sharded_battery_fault_plan(),
        )
        serial = run_scenario(cfg)
        assert serial.max_voqs_used > 0
        assert serial.retransmitted_packets > 0
        assert serial.stats.fault_drops["data"] > 0
        assert serial.stats.extension_counters["floodgate.credits_sent"] > 0
        assert serial.scenario.fault_injector.states
        for mode in ("barrier", "process"):
            sharded = run_scenario(
                dataclasses.replace(cfg, shards=2, shard_mode=mode)
            )
            assert sharded.max_voqs_used == serial.max_voqs_used, mode
            assert (
                sharded.retransmitted_packets == serial.retransmitted_packets
            ), mode
            assert sharded.stats.fault_drops == serial.stats.fault_drops, mode
            assert (
                sharded.stats.fault_corruptions == serial.stats.fault_corruptions
            ), mode
            assert (
                sharded.stats.extension_counters
                == serial.stats.extension_counters
            ), mode
            assert not hasattr(sharded, "shard_digests")


class TestOneRuntimeManyTransports:
    def test_barrier_and_process_reports_are_equal_field_for_field(self):
        # the property that makes one merge sufficient: a domain's
        # report does not depend on which transport carried its calls
        def reports(mode):
            cfg = tiny_cfg(
                shards=2,
                shard_mode=mode,
                fault_plan=sharded_battery_fault_plan(),
                telemetry=TelemetryConfig(),
                sanitize=SanitizerConfig(),
            )
            run = run_domains(Scenario(cfg), collect_digests=True, isolate=True)
            assert run.violations == [] and run.isolation_violations == []
            assert all(run.domain_digests)
            return run.reports

        barrier, process = reports("barrier"), reports("process")
        assert [r.domain for r in barrier] == [0, 1]
        for ours, theirs in zip(barrier, process, strict=True):
            for field in dataclasses.fields(ScopeReport):
                a, b = getattr(ours, field.name), getattr(theirs, field.name)
                if field.name == "stats":
                    a.canonicalize()
                    b.canonicalize()
                    a, b = pickle.dumps(a), pickle.dumps(b)
                assert a == b, (ours.domain, field.name)
        # and the reports are not vacuous
        assert sum(r.stats.fault_drops["data"] for r in barrier) > 0
        assert all(r.ledger["injected"] > 0 for r in barrier)
        assert all(r.series for r in barrier)

    @pytest.mark.parametrize("mode", ["barrier", "process"])
    def test_unbalanced_ledger_is_reported_at_the_sweep_it_occurs(self, mode):
        sc = two_flow_scenario(shard_mode=mode, sanitize=SanitizerConfig())
        host = sc.topology.hosts[0]
        start_flow = host.start_flow

        def leaky_start(flow):
            host.tx_data_packets += 1  # a packet no ledger ever sees again
            start_flow(flow)

        host.start_flow = leaky_start
        result = run_scenario(sc.config, scenario=sc)
        assert result.completed_flows == 2
        assert result.sim_time == us(200)
        broken = [
            v for v in result.sanitizer_violations
            if "DATA packet conservation broken" in v
        ]
        # the leak happens at 10 us: both sweeps and the final check see it
        assert [v.split(":")[0] for v in broken] == [
            "t=100000ns", "t=200000ns", "t=200000ns",
        ]
        assert "off by 1" in broken[0]

    def test_worker_failure_names_the_domain_and_frees_the_others(
        self, monkeypatch
    ):
        sc = two_flow_scenario(shard_mode="process")

        def boom(flow):
            raise ValueError("boom: injected callback failure")

        sc.topology.hosts[7].start_flow = boom  # host 7 lives in domain 1
        terminated = []
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess,
            "terminate",
            lambda proc: terminated.append(proc),
        )
        with pytest.raises(RuntimeError) as err:
            run_scenario(sc.config, scenario=sc)
        message = str(err.value)
        assert "shard worker for domain 1 failed" in message
        assert "ValueError: boom: injected callback failure" in message
        # domain 0's worker saw EOF and exited on its own: nobody had to
        # wait out the join timeout and kill it
        assert terminated == []
        assert multiprocessing.active_children() == []
