"""Closed-loop rpc workloads: spec, matrix, driver, registry, CLI."""

from __future__ import annotations

import random

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.faults.plan import FaultPlan, LinkDown
from repro.rpc import DestinationMatrix, RpcWorkloadSpec
from repro.stats.rpc import RpcRecord, summarize_rpc
from repro.units import us


def rpc_cfg(**kw) -> ScenarioConfig:
    spec_kw = dict(n_clients=4, fan_out=4, think_time=us(10))
    spec_kw.update(kw.pop("spec", {}))
    params = dict(
        pattern="rpc",
        rpc=RpcWorkloadSpec(**spec_kw),
        flow_control="floodgate",
        n_tors=4,
        hosts_per_tor=2,
        duration=us(300),
        seed=3,
    )
    params.update(kw)
    return ScenarioConfig(**params)


# -- the spec -----------------------------------------------------------------


class TestSpec:
    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(fan_out=0), "fan_out must be >= 1"),
            (dict(n_clients=-1), "n_clients must be >= 0"),
            (dict(think_time=-5), "think_time must be >= 0"),
            (dict(request_size=0), "request_size must be >= 1"),
            (
                dict(response_size_min=500, response_size_max=100),
                "response sizes",
            ),
            (dict(zipf_alpha=0.0), "zipf_alpha must be > 0"),
        ],
    )
    def test_validation(self, kw, match):
        with pytest.raises(ValueError, match=match):
            RpcWorkloadSpec(**kw)


# -- config validation --------------------------------------------------------


class TestScenarioConfigValidation:
    def test_rpc_pattern_needs_a_spec(self):
        with pytest.raises(ValueError, match="needs a workload description"):
            ScenarioConfig(pattern="rpc")

    def test_spec_needs_the_rpc_pattern(self):
        with pytest.raises(ValueError, match="rpc is set, but pattern='poisson' does not read it"):
            ScenarioConfig(pattern="poisson", rpc=RpcWorkloadSpec())

    def test_permanent_link_down_is_rejected(self):
        plan = FaultPlan((LinkDown(at=us(10), duration=0),))
        with pytest.raises(ValueError, match="permanent LinkDown"):
            rpc_cfg(fault_plan=plan)

    def test_transient_link_down_is_allowed(self):
        plan = FaultPlan((LinkDown(at=us(10), duration=us(20)),))
        assert rpc_cfg(fault_plan=plan).fault_plan is plan


# -- the destination matrix ---------------------------------------------------


def rack_weights(m: DestinationMatrix) -> list:
    """Selection probability per popularity rank."""
    cum = m._cum_weights
    return [(hi - lo) / m._total_weight for lo, hi in zip([0.0] + cum, cum, strict=False)]


class TestDestinationMatrix:
    RACKS = {h: h // 4 for h in range(16)}  # 4 racks of 4

    def test_zipf_skews_toward_the_top_rank(self):
        spec = RpcWorkloadSpec(zipf_alpha=1.2)
        m = DestinationMatrix(spec, self.RACKS, random.Random(7))
        weights = sorted(rack_weights(m), reverse=True)
        assert weights[0] > 2 * weights[-1]
        assert sum(weights) == pytest.approx(1.0)

    def test_sampled_servers_are_distinct_and_never_the_client(self):
        spec = RpcWorkloadSpec(fan_out=8)
        m = DestinationMatrix(spec, self.RACKS, random.Random(7))
        rng = random.Random(11)
        for _ in range(50):
            servers = m.sample_servers(rng, client=5, fan_out=8)
            assert len(servers) == 8
            assert len(set(servers)) == 8
            assert 5 not in servers

    def test_fan_out_beyond_hosts_wraps(self):
        racks = {0: 0, 1: 0, 2: 1}
        m = DestinationMatrix(RpcWorkloadSpec(), racks, random.Random(7))
        servers = m.sample_servers(random.Random(11), client=0, fan_out=5)
        assert len(servers) == 5
        assert set(servers) <= {1, 2}

    def test_rejects_single_host_fabrics(self):
        with pytest.raises(ValueError, match="at least two hosts"):
            DestinationMatrix(RpcWorkloadSpec(), {0: 0}, random.Random(7))


# -- the closed loop, end to end ----------------------------------------------


class TestClosedLoop:
    @pytest.mark.parametrize("fidelity", ["packet", "flow"])
    def test_requests_complete_on_both_tiers(self, fidelity):
        r = run_scenario(rpc_cfg(fidelity=fidelity))
        assert r.completed_requests > 0
        assert r.requests_per_sec > 0
        s = r.rpc_summary
        assert s.count == r.completed_requests
        assert 0 < s.p50_ns <= s.p99_ns <= s.p999_ns <= s.max_ns
        # every request is fan_out requests + fan_out responses
        assert r.total_flows >= 2 * 4 * r.completed_requests

    def test_closed_loop_feedback(self):
        """Slower fabric -> fewer requests: the defining property."""
        fast = run_scenario(rpc_cfg(seed=9))
        slow = run_scenario(rpc_cfg(seed=9, host_link_delay=us(20)))
        assert slow.completed_requests < fast.completed_requests

    def test_driver_rejects_oversized_client_populations(self):
        with pytest.raises(ValueError, match="exceeds the 8 hosts"):
            run_scenario(rpc_cfg(spec=dict(n_clients=32)))


# -- request summaries --------------------------------------------------------


class TestSummaries:
    def test_summarize_rpc(self):
        records = [
            RpcRecord(i, 0, 4, 0, (i + 1) * 1000) for i in range(100)
        ]
        s = summarize_rpc(records)
        assert s.count == 100
        assert s.p50_ns == pytest.approx(50_000, rel=0.02)
        assert s.max_ns == 100_000
        assert s.p999_ns <= s.max_ns

    def test_empty_summary_is_zero(self):
        s = summarize_rpc([])
        assert s.count == 0 and s.p999_ns == 0


# -- the registry -------------------------------------------------------------


class TestRegistry:
    def test_builtins_present(self):
        names = registry.names()
        assert "quick" in names
        assert "rpc-fanout" in names
        assert "rpc-fanout-flow" in names

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="available scenarios: quick"):
            registry.get("nosuch")

    def test_tag_filtering(self):
        assert registry.names(tag="rpc") == ["rpc-fanout", "rpc-fanout-flow"]
        assert registry.names(tag="nosuch") == []

    def test_duplicate_registration_rejected(self):
        entry = registry.get("quick")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(entry)


# -- the CLI ------------------------------------------------------------------


class TestCli:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out

    def test_scenarios_list_tag(self, capsys):
        assert main(["scenarios", "list", "--tag", "rpc"]) == 0
        out = capsys.readouterr().out
        assert "rpc-fanout" in out
        assert "fattree-a2a" not in out

    def test_scenarios_show(self, capsys):
        assert main(["scenarios", "show", "rpc-fanout"]) == 0
        out = capsys.readouterr().out
        assert "tags:        rpc, packet" in out
        assert '"fan_out": 8' in out

    def test_scenarios_show_unknown(self, capsys):
        assert main(["scenarios", "show", "nosuch"]) == 1
        err = capsys.readouterr().err
        assert "available scenarios" in err

    def test_report_unknown_scenario(self, capsys):
        assert main(["report", "--scenario", "nosuch"]) == 1
        err = capsys.readouterr().err
        assert "available scenarios" in err


# -- report rendering ---------------------------------------------------------


class TestSloReport:
    def test_render_includes_slo_section(self):
        from repro.telemetry.registry import TelemetryConfig
        from repro.telemetry.report import render_export

        cfg = rpc_cfg(telemetry=TelemetryConfig())
        r = run_scenario(cfg)
        text = render_export(r.telemetry)
        assert "request-level SLOs" in text
        assert "p999" in text
        assert "requests/s" in text

    def test_no_slo_section_without_rpc(self):
        from repro.telemetry.registry import TelemetryConfig
        from repro.telemetry.report import render_export

        cfg = ScenarioConfig(
            n_tors=2,
            hosts_per_tor=2,
            duration=us(100),
            telemetry=TelemetryConfig(),
        )
        r = run_scenario(cfg)
        assert "request-level SLOs" not in render_export(r.telemetry)
