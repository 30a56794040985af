"""Whole runs on the busy-until port vs the two-event port it replaced.

``tests/port_pr15.py`` is the old transmit path verbatim.  The new
port's contract is that nothing simulated moved: with the event count
and the engine-profile block blanked (both count heap events, which is
the one thing that *did* change), a run's ``ResultSummary`` must have
the same ``canonical_bytes`` on the two ports, and the same per-flow
FCT records.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.net.node as node_module
from port_pr15 import TwoEventPort
from repro.experiments import registry, run_scenario, summarize
from repro.experiments.scenario import FLOW_CONTROLS, ScenarioConfig
from repro.faults.plan import FaultPlan, LinkDown, PortDegrade, RandomLoss
from repro.rpc.spec import RpcWorkloadSpec
from repro.telemetry.registry import TelemetryConfig
from repro.units import us


def blanked(cfg: ScenarioConfig):
    """Summary of one run with everything that counts heap events zeroed."""
    summary = summarize(run_scenario(cfg))
    telemetry = summary.telemetry
    if telemetry is not None:
        meta = {k: v for k, v in telemetry.meta.items() if k != "events"}
        telemetry = dataclasses.replace(telemetry, profile=None, meta=meta)
    return (
        dataclasses.replace(summary, events=0, telemetry=telemetry),
        summary.events,
    )


def on_both_ports(cfg: ScenarioConfig, monkeypatch):
    """``(new, old)`` blanked summaries of ``cfg``, and their event counts."""
    new, new_events = blanked(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(node_module, "EgressPort", TwoEventPort)
        old, old_events = blanked(cfg)
    return new, old, new_events, old_events


def assert_same_simulation(cfg: ScenarioConfig, monkeypatch) -> None:
    new, old, new_events, old_events = on_both_ports(cfg, monkeypatch)
    assert new.stats.fct_records == old.stats.fct_records
    # StatsHub has no __eq__: the summary's identity is its canonical bytes
    assert new.canonical_bytes() == old.canonical_bytes()
    # the oracle really ran: it spends an extra event on every hop the
    # new port fuses, so on a run with traffic it executes strictly more
    assert old_events > new_events


#: arrivals window of the registry matrix: long enough for incast,
#: PFC, VOQ parking and retransmission on every fabric, short enough
#: that 6 schemes x 12 configs x 2 ports stay inside tier-1's budget
MATRIX_DURATION = us(60)

PACKET_CONFIGS = [
    pytest.param(cfg, id=f"{name}[{i}]")
    for name in registry.names()
    for i, cfg in enumerate(registry.get(name).configs)
    if cfg.fidelity == "packet"
]


@pytest.mark.parametrize("flow_control", FLOW_CONTROLS)
@pytest.mark.parametrize("cfg", PACKET_CONFIGS)
def test_registry_config_under_every_scheme(cfg, flow_control, monkeypatch):
    """Every packet/rpc registry fabric and traffic pattern (sharded
    entries too: their boundary links take the fused path) x every
    flow-control scheme, on a shortened arrivals window."""
    cfg = replace(
        cfg,
        flow_control=flow_control,
        duration=min(cfg.duration, MATRIX_DURATION),
    )
    assert_same_simulation(cfg, monkeypatch)


@pytest.mark.parametrize("name", ["quick", "rpc-fanout"])
def test_registry_config_at_full_length(name, monkeypatch):
    for cfg in registry.get(name).configs:
        assert_same_simulation(cfg, monkeypatch)


#: faulted links keep the tx-done path while their neighbours fuse: a
#: loss draw per delivery, a link that dies mid-serialization, a rate
#: change mid-serialization
FABRIC_FAULTS = FaultPlan(
    faults=(
        RandomLoss(start=us(5), link="switch-switch", data_rate=0.02, ctrl_rate=0.02),
        LinkDown(at=us(30), link="tor0<->spine0", duration=us(25), mode="drop"),
        PortDegrade(at=us(10), link="tor1<->spine1", duration=us(60), rate_factor=0.25),
    )
)


def edge_faults(hosts_per_tor: int) -> FaultPlan:
    """The same on host links: the sharded engine only accepts faults
    on intra-domain links (host ids run tor by tor: this is tor1's first)."""
    return FaultPlan(
        faults=(
            RandomLoss(start=us(5), link="host-switch", data_rate=0.02, ctrl_rate=0.02),
            PortDegrade(
                at=us(10),
                link=f"tor1<->h{hosts_per_tor}",
                duration=us(60),
                rate_factor=0.25,
            ),
        )
    )


small_configs = st.builds(
    ScenarioConfig,
    flow_control=st.sampled_from(FLOW_CONTROLS),
    cc=st.sampled_from(["dcqcn", "dctcp", "hpcc", "timely"]),
    pattern=st.sampled_from(["incastmix", "poisson", "incast"]),
    workload=st.just("webserver"),
    n_tors=st.integers(min_value=2, max_value=3),
    hosts_per_tor=st.integers(min_value=2, max_value=4),
    poisson_load=st.sampled_from([0.3, 0.8, 1.2]),
    incast_load=st.sampled_from([0.3, 0.9]),
    buffer_bytes=st.sampled_from([0, 60_000]),
    duration=st.just(us(80)),
    seed=st.integers(min_value=1, max_value=10_000),
    # telemetry puts the profile block in the summary
    telemetry=st.sampled_from([None, TelemetryConfig()]),
)


@given(
    cfg=small_configs,
    shards=st.sampled_from([1, 2]),
    faulted=st.booleans(),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_hypothesis_drawn_small_configs(cfg, shards, faulted, monkeypatch):
    if faulted:
        plan = FABRIC_FAULTS if shards == 1 else edge_faults(cfg.hosts_per_tor)
        cfg = replace(cfg, fault_plan=plan)
    assert_same_simulation(replace(cfg, shards=shards), monkeypatch)


def test_closed_loop_rpc_on_a_small_fabric(monkeypatch):
    cfg = ScenarioConfig(
        flow_control="floodgate",
        workload="webserver",
        pattern="rpc",
        rpc=RpcWorkloadSpec(n_clients=3, fan_out=3, think_time=us(10)),
        n_tors=3,
        hosts_per_tor=3,
        duration=us(150),
        seed=9,
    )
    assert_same_simulation(cfg, monkeypatch)
