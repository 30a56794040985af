"""Cross-module integration invariants.

These exercise the full stack (workload -> hosts -> switches ->
flow control -> stats) and check conservation properties that any
correct packet-level simulator must satisfy.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, ScenarioConfig

QUICK = dict(n_tors=3, hosts_per_tor=4, duration=200_000)


ALL_STACKS = [
    ("dcqcn", "none"),
    ("dcqcn", "floodgate"),
    ("dcqcn", "floodgate-ideal"),
    ("timely", "floodgate"),
    ("hpcc", "floodgate"),
    ("static", "bfc"),
    ("static", "ndp"),
    ("dcqcn", "pfc-tag"),
]


@pytest.mark.parametrize("cc,fc", ALL_STACKS)
class TestConservation:
    def _run(self, cc, fc):
        cfg = ScenarioConfig(
            cc=cc,
            flow_control=fc,
            workload="memcached",
            max_runtime_factor=30.0,
            **QUICK,
        )
        sc = Scenario(cfg)
        return run_scenario(cfg, scenario=sc), sc

    def test_every_flow_delivers_exactly_its_bytes(self, cc, fc):
        result, sc = self._run(cc, fc)
        assert result.completed_flows == result.total_flows
        for flow in sc.topology.flow_table.values():
            assert flow.delivered_bytes == flow.size

    def test_no_buffer_leak_at_end(self, cc, fc):
        result, sc = self._run(cc, fc)
        for sw in sc.topology.switches:
            assert sw.buffer.used == 0, f"{sw.name} leaked {sw.buffer.used}"

    def test_fct_positive_and_ordered(self, cc, fc):
        result, sc = self._run(cc, fc)
        for rec in result.stats.fct_records:
            assert rec.fct > 0
            assert rec.finish_time <= result.sim_time


class TestFloodgateHeadline:
    """The paper's core claims at integration level."""

    def _pair(self, **kw):
        base = ScenarioConfig(workload="webserver", **QUICK, **kw)
        return (
            run_scenario(replace(base, flow_control="none")),
            run_scenario(replace(base, flow_control="floodgate")),
        )

    def test_floodgate_reduces_last_hop_buffer(self):
        base_r, fg_r = self._pair()
        assert (
            fg_r.stats.max_port_buffer_by_role("tor-down")
            < base_r.stats.max_port_buffer_by_role("tor-down")
        )

    def test_floodgate_moves_buffer_upstream(self):
        base_r, fg_r = self._pair()
        assert (
            fg_r.stats.max_port_buffer_by_role("tor-up")
            >= base_r.stats.max_port_buffer_by_role("tor-up")
        )

    def test_floodgate_eliminates_pfc(self):
        base_r, fg_r = self._pair(buffer_bytes=300_000)
        assert base_r.stats.pfc_pause_events > 0
        assert fg_r.stats.pfc_pause_events == 0

    def test_voqs_used_only_for_incast(self):
        cfg = ScenarioConfig(
            workload="memcached",
            flow_control="floodgate",
            pattern="poisson",
            **QUICK,
        )
        r = run_scenario(cfg)
        # At paper scale at most one VOQ engages; at CI scale windows
        # are smaller relative to flow bursts, so brief allocations for
        # transiently-hot destinations occur.  They must stay rare.
        assert r.max_voqs_used <= 8

    def test_incast_flows_not_penalized(self):
        base_r, fg_r = self._pair()
        assert fg_r.incast_fct.avg_ns <= base_r.incast_fct.avg_ns * 1.3
