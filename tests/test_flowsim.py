"""Fluid tier: max-min allocator, flow-fidelity runs, config validation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.parallel import config_fingerprint
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.faults.plan import FaultPlan
from repro.flowsim import max_min_rates
from repro.simcheck.determinism import check_repeatable
from repro.simcheck.sanitizer import SanitizerConfig
from repro.units import us

INF = float("inf")


def tiny_cfg(**overrides) -> ScenarioConfig:
    base = dict(
        flow_control="floodgate",
        n_tors=3,
        hosts_per_tor=2,
        duration=us(200),
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# -- the allocator ------------------------------------------------------------


def test_maxmin_empty_input():
    assert max_min_rates([], [], [10.0]) == []


def test_maxmin_single_bottleneck_fair_share():
    paths = [(0,), (0,), (0,)]
    rates = max_min_rates(paths, [INF, INF, INF], [30.0])
    assert rates == pytest.approx([10.0, 10.0, 10.0])


def test_maxmin_ceiling_frees_capacity_for_the_rest():
    # one flow capped at 2 on a 10-capacity resource: the other takes 8
    rates = max_min_rates([(0,), (0,)], [2.0, INF], [10.0])
    assert rates == pytest.approx([2.0, 8.0])


def test_maxmin_multi_resource_waterfilling():
    # A crosses both resources, B only the tight one, C only the wide
    # one.  r1 (cap 4) saturates first at level 2, freezing A and B;
    # C then fills what A left on r0.
    paths = [(0, 1), (1,), (0,)]
    rates = max_min_rates(paths, [INF, INF, INF], [10.0, 4.0])
    assert rates == pytest.approx([2.0, 2.0, 8.0])
    # full conservation on both resources
    assert rates[0] + rates[2] == pytest.approx(10.0)
    assert rates[0] + rates[1] == pytest.approx(4.0)


def test_maxmin_resource_free_flow_sits_at_its_ceiling():
    rates = max_min_rates([(), (0,)], [3.0, INF], [10.0])
    assert rates == pytest.approx([3.0, 10.0])


def test_maxmin_is_deterministic_across_calls():
    paths = [(0, 1), (1, 2), (0, 2), (1,)]
    ceilings = [5.0, INF, 7.5, INF]
    caps = [10.0, 6.0, 9.0]
    first = max_min_rates(paths, ceilings, caps)
    assert all(
        max_min_rates(paths, ceilings, caps) == first for _ in range(5)
    )


# -- flow-fidelity runs -------------------------------------------------------


def test_flow_fidelity_run_completes_flows():
    result = run_scenario(tiny_cfg(fidelity="flow"))
    assert result.completed_flows > 0
    assert result.completed_flows == len(result.stats.fct_records)
    assert all(r.fct > 0 for r in result.stats.fct_records)
    # delivered what the flow table promised
    assert result.completed_flows <= result.total_flows


def test_flow_fidelity_matches_packet_flow_population():
    # same config/seed: both tiers schedule the identical flow set
    packet = run_scenario(tiny_cfg(fidelity="packet"))
    flow = run_scenario(tiny_cfg(fidelity="flow"))
    assert flow.total_flows == packet.total_flows


def test_flow_fidelity_sanitized_run_is_clean():
    cfg = tiny_cfg(fidelity="flow", sanitize=SanitizerConfig())
    result = run_scenario(cfg)
    assert result.sanitizer_violations == []
    assert result.completed_flows > 0


def test_flow_fidelity_same_seed_runs_are_byte_identical():
    rep = check_repeatable(tiny_cfg(fidelity="flow"))
    assert rep["ok"], rep
    assert rep["violations"] == []


# -- the incremental fast path ------------------------------------------------


def test_incremental_allocation_equals_full_recompute_at_every_step(
    checked_reallocations,
):
    # 16 hosts of short webserver flows: ~120 reallocations, most of
    # them over a strict subset of the active flows
    result = run_scenario(
        tiny_cfg(
            fidelity="flow",
            n_tors=4,
            hosts_per_tor=4,
            pattern="poisson",
            workload="webserver",
            poisson_load=0.6,
            duration=us(300),
        )
    )
    assert result.completed_flows == result.total_flows > 50
    assert len(checked_reallocations) > 50
    # the fast path really is partial: some reallocation left active
    # flows untouched, and those were held to the reference too
    assert any(part < active for part, active in checked_reallocations)


def test_incidence_index_and_active_list_drain_with_the_run():
    # the allocator iterates the buckets of _res_flows directly: a flow
    # left behind in one would be re-shared forever after it retired
    result = run_scenario(
        tiny_cfg(
            fidelity="flow",
            n_tors=4,
            hosts_per_tor=4,
            pattern="poisson",
            workload="webserver",
            poisson_load=0.6,
            duration=us(300),
        )
    )
    assert result.completed_flows == result.total_flows > 50
    fluid = result.scenario.fluid
    assert fluid._res_flows == {}
    assert fluid._active == []


def test_a_batch_of_simultaneous_departures_keeps_the_active_order():
    """Flows that retire in one step leave ``_active`` in admission
    order (the order ``_sweep`` books resource bits in)."""
    from repro.experiments.scenario import Scenario
    from repro.flowsim.model import FluidSimulation
    from repro.workloads.poisson import FlowSpec

    sc = Scenario(tiny_cfg(fidelity="flow"))
    fs = FluidSimulation(sc)
    rack_of = sc.rack_of()
    hosts = sorted(rack_of)
    dst = hosts[-1]
    srcs = [h for h in hosts if rack_of[h] != rack_of[dst]]
    # equal-size senders into one host finish in the same step; the
    # long flows before, between and after them stay
    sizes = [9_000_000, 30_000, 9_000_000, 30_000, 9_000_000]
    fs.schedule(
        [
            FlowSpec(i, srcs[i % len(srcs)], dst, size, 0)
            for i, size in enumerate(sizes)
        ]
    )
    sc.sim.run(until=us(1))
    assert [ff.flow.flow_id for ff in fs._active] == [0, 1, 2, 3, 4]
    retired = []
    retire = fs._retire_flow

    def recording(ff, now):
        retired.append((now, ff.flow.flow_id))
        retire(ff, now)

    fs._retire_flow = recording
    sc.sim.run(until=us(200))
    assert [flow_id for _, flow_id in retired] == [1, 3]
    assert retired[0][0] == retired[1][0]
    assert [ff.flow.flow_id for ff in fs._active] == [0, 2, 4]
    assert fs.allocation_errors() == []


def test_allocation_errors_reports_a_stale_rate():
    from repro.experiments.scenario import Scenario
    from repro.flowsim.model import FluidSimulation

    fluid = FluidSimulation(Scenario(tiny_cfg(fidelity="flow")))
    fluid.schedule()
    fluid.sim.run(until=us(50))
    assert fluid._active and fluid.allocation_errors() == []
    fluid._active[0].rate *= 0.5
    (error,) = fluid.allocation_errors()
    assert f"flow {fluid._active[0].flow.flow_id}" in error


# -- the tail-path cache ------------------------------------------------------


def test_tail_paths_are_cached_per_rack_and_destination():
    from repro.experiments.scenario import Scenario
    from repro.flowsim.model import FluidSimulation

    sc = Scenario(tiny_cfg(fidelity="flow"))
    fs = FluidSimulation(sc)
    rack_of = sc.rack_of()
    racks = {}
    for host, rack in sorted(rack_of.items()):
        racks.setdefault(rack, []).append(host)
    a, b = racks[0][0], racks[0][1]
    dst = racks[1][0]
    fs._tail_cache.clear()
    pa, hops_a = fs._build_path(a, dst)
    pb, hops_b = fs._build_path(b, dst)
    # both sources sit behind one ToR: a single shared cache entry,
    # and identical paths past the first (host->ToR) hop
    assert len(fs._tail_cache) == 1
    assert pa[1:] == pb[1:]
    assert hops_a[1:] == hops_b[1:]


# -- packet-tier cross traffic in the queueing correction ---------------------


def test_queueing_wait_counts_booked_packet_bits():
    """Bits the hybrid boundary books via note_packet_bits are cross
    traffic for the M/M/1 correction — but only bits booked *after*
    the flow was admitted (the admit-time baseline prevents the
    double-count this regression test guards)."""
    from repro.experiments.scenario import Scenario
    from repro.flowsim.model import FluidSimulation
    from repro.workloads.poisson import FlowSpec

    sc = Scenario(tiny_cfg(fidelity="flow"))
    fs = FluidSimulation(sc)
    rack_of = sc.rack_of()
    hosts = sorted(rack_of)
    src = hosts[0]
    dst = next(h for h in hosts if rack_of[h] != rack_of[src])
    # pre-admission packet load: must be baselined away at admit
    stale = [r for r in range(fs._n_link_resources)]
    for r in stale:
        fs.note_packet_bits(r, 1e9)
    fs.schedule([FlowSpec(0, src, dst, 1_000_000, 0)])
    sc.sim.run(until=us(50))
    (ff,) = fs._active
    now = sc.sim.now
    assert fs._queueing_wait(ff, now) == 0  # lone flow, no cross traffic
    r = next(r for r in ff.path if r < fs._n_link_resources)
    fs.note_packet_bits(r, 5e8)
    wait = fs._queueing_wait(ff, now)
    assert wait > 0
    # booking on a link off the flow's path changes nothing
    off_path = next(
        r
        for r in range(fs._n_link_resources)
        if r not in ff.path
    )
    fs.note_packet_bits(off_path, 5e8)
    assert fs._queueing_wait(ff, now) == wait


# -- config validation (satellite: invalid fields raise at construction) ------


def test_unknown_fidelity_raises_at_construction():
    with pytest.raises(ValueError, match="unknown fidelity"):
        tiny_cfg(fidelity="bogus")


@pytest.mark.parametrize(
    "field, value",
    [
        ("topology", "ring"),
        ("cc", "hpcc2"),
        ("flow_control", "magic"),
        ("pattern", "bursty"),
        ("workload", "nonexistent-trace"),
    ],
)
def test_unknown_enumerated_fields_raise_at_construction(field, value):
    with pytest.raises(ValueError, match=f"unknown {field}"):
        tiny_cfg(**{field: value})


def test_flow_fidelity_rejects_queue_level_flow_control():
    with pytest.raises(ValueError, match="cannot model flow_control"):
        tiny_cfg(fidelity="flow", flow_control="bfc")


def test_flow_fidelity_rejects_fault_injection():
    with pytest.raises(ValueError, match="fault injection requires"):
        tiny_cfg(fidelity="flow", fault_plan=FaultPlan(stall_window=us(10)))


def test_empty_fault_plan_is_fine_at_flow_fidelity():
    cfg = tiny_cfg(fidelity="flow", fault_plan=FaultPlan())
    assert cfg.fidelity == "flow"


def test_misspelled_config_field_raises():
    with pytest.raises(TypeError):
        tiny_cfg(fidelty="flow")


# -- cache identity -----------------------------------------------------------


def test_fidelity_enters_the_config_fingerprint():
    packet = config_fingerprint(replace(tiny_cfg(), fidelity="packet"))
    flow = config_fingerprint(replace(tiny_cfg(), fidelity="flow"))
    assert packet != flow
