"""Hybrid fidelity: hot-rack selection, boundary conservation, determinism."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, ScenarioConfig, reference_config
from repro.hybrid import select_hot_racks
from repro.simcheck.determinism import check_repeatable
from repro.simcheck.sanitizer import SanitizerConfig
from repro.units import us


def tiny_cfg(**overrides) -> ScenarioConfig:
    base = dict(
        fidelity="hybrid",
        flow_control="floodgate",
        n_tors=3,
        hosts_per_tor=2,
        duration=us(200),
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def mix_cfg(**overrides) -> ScenarioConfig:
    """A workload dense enough that hot-rack hosts also *send* to cold
    racks, exercising the absorption direction of the boundary."""
    base = dict(
        fidelity="hybrid",
        flow_control="floodgate",
        n_tors=4,
        hosts_per_tor=4,
        n_spines=2,
        pattern="incastmix",
        poisson_load=0.6,
        incast_load=0.8,
        duration=us(400),
        max_runtime_factor=16.0,
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# -- hot-rack selection -------------------------------------------------------


def test_auto_selection_picks_the_incast_victim_rack():
    sc = Scenario(tiny_cfg(pattern="incast", incast_fan_in=4))
    hot = select_hot_racks(sc)
    assert hot == (sc.rack_of()[sc.config.incast_dst],)


def test_auto_selection_falls_back_to_busiest_destination():
    # a light Poisson load keeps every host far below the 70%-of-line-
    # rate threshold; the selector must still return a non-empty set
    sc = Scenario(
        tiny_cfg(pattern="poisson", poisson_load=0.5, duration=us(400))
    )
    assert sc.flows, "workload surprisingly empty; pick a denser load"
    rack_of = sc.rack_of()
    arrival = {}
    for spec in sc.flows:
        arrival[spec.dst] = arrival.get(spec.dst, 0) + spec.size
    busiest = max(sorted(arrival), key=lambda d: arrival[d])
    hot = select_hot_racks(sc)
    assert hot == (rack_of[busiest],)


def test_explicit_hot_racks_override_auto_selection():
    result = run_scenario(tiny_cfg(hot_racks=(1,)))
    assert result.scenario.hybrid.hot_racks == (1,)


def test_out_of_range_hot_rack_raises():
    with pytest.raises(ValueError, match="out of range"):
        run_scenario(tiny_cfg(hot_racks=(7,)))


# -- boundary conservation ----------------------------------------------------


def test_inbound_boundary_conserves_bytes_under_sanitizer():
    """Cold sources to a hot destination: every fluid flow materializes
    as paced injections and the sanitizer's per-direction boundary
    ledger (injected vs fluid progress vs delivered) stays clean."""
    result = run_scenario(
        tiny_cfg(pattern="incast", incast_fan_in=4, sanitize=SanitizerConfig())
    )
    hybrid = result.scenario.hybrid
    assert result.sanitizer_violations == []
    assert result.completed_flows == result.total_flows
    assert hybrid.injected_packets > 0
    assert hybrid.injected_bytes > 0
    # nothing crossed outward in a pure fan-in
    assert hybrid.absorbed_packets == 0
    assert hybrid.boundary_errors(final=True) == []


def test_outbound_boundary_conserves_bytes_under_sanitizer():
    """Hot-rack sources to cold destinations: packets absorbed at the
    uplink must all re-surface as tunnel deliveries, and with Floodgate
    on, every absorbed data packet echoes one synthesized credit."""
    result = run_scenario(mix_cfg(sanitize=SanitizerConfig()))
    hybrid = result.scenario.hybrid
    assert result.sanitizer_violations == []
    assert result.completed_flows == result.total_flows
    assert hybrid.absorbed_packets > 0
    assert hybrid.tunnel_delivered_packets == hybrid.absorbed_packets
    assert hybrid.synthesized_credit_frames == hybrid.absorbed_packets
    assert hybrid.boundary_errors(final=True) == []


def test_outbound_boundary_without_flow_control():
    result = run_scenario(mix_cfg(flow_control="none", sanitize=SanitizerConfig()))
    hybrid = result.scenario.hybrid
    assert result.sanitizer_violations == []
    assert hybrid.absorbed_packets > 0
    # no Floodgate extension, so no credits to synthesize
    assert hybrid.synthesized_credit_frames == 0


# -- determinism --------------------------------------------------------------


def test_hybrid_same_seed_runs_are_byte_identical():
    rep = check_repeatable(mix_cfg())
    assert rep["ok"], rep
    assert rep["violations"] == []
    assert len(set(rep["event_digests"])) == 1
    assert len(set(rep["summary_digests"])) == 1


def test_hybrid_flow_population_matches_packet():
    hybrid = run_scenario(mix_cfg())
    packet = run_scenario(
        replace(mix_cfg(), fidelity="packet", hot_racks=())
    )
    assert hybrid.total_flows == packet.total_flows


def test_incremental_allocation_equals_full_recompute_at_every_step(
    checked_reallocations,
):
    # boundary traffic dirties links from both tiers (injector
    # re-pacing, ghost flows, headroom ticks); every resulting rate
    # installation is held to the full-recompute reference
    result = run_scenario(mix_cfg(workload="webserver"))
    assert result.completed_flows == result.total_flows
    assert len(checked_reallocations) > 50
    assert any(part < active for part, active in checked_reallocations)


def test_incidence_index_and_active_list_drain_with_the_run():
    # ghosts, inbound boundary flows and plain fluid flows all leave the
    # index the allocator iterates when they are done
    result = run_scenario(mix_cfg(workload="webserver"))
    assert result.completed_flows == result.total_flows
    hybrid = result.scenario.hybrid
    assert hybrid._res_flows == {}
    assert hybrid._active == []
    assert hybrid._ghost_flows == {}


# -- the tolerance-free anchor: every rack hot == the packet engine -----------


@pytest.mark.parametrize("flow_control", ["floodgate", "none"])
def test_all_racks_hot_reproduces_the_packet_engine(flow_control):
    cfg = mix_cfg(workload="webserver", flow_control=flow_control)
    hybrid = run_scenario(replace(cfg, hot_racks=(0, 1, 2, 3)))
    packet = run_scenario(reference_config(cfg)[1])
    assert len(packet.stats.fct_records) > 100
    assert hybrid.stats.fct_records == packet.stats.fct_records
    assert hybrid.completed_flows == packet.completed_flows


def test_validation_configs_flip_fidelity_only():
    """One drop-free incast variant, defined once in the registry: the
    fluid and hybrid bench twins are the validation configs with only
    the fidelity flipped."""
    from repro.experiments import registry
    from repro.experiments.validate import validation_configs

    base = validation_configs("incast256")
    assert [c.fidelity for c in base] == ["packet"] * 3
    assert base != registry.get("incast256").configs
    for tier, twin in (("flow", "flowsim-incast256"), ("hybrid", "hybrid-incast256")):
        assert registry.get(twin).configs == tuple(
            replace(cfg, fidelity=tier) for cfg in base
        )


def test_telemetry_counters_are_exported():
    from repro.telemetry.registry import TelemetryConfig

    result = run_scenario(mix_cfg(telemetry=TelemetryConfig()))
    assert result.telemetry.counter_value("hybrid.injected_packets") > 0
    assert result.telemetry.counter_value("hybrid.absorbed_packets") > 0
