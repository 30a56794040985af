"""Whole runs on the live code vs the same runs with an oracle grafted in.

The perf PRs that rewrote a hot path kept what they replaced under
``tests/`` (``port_pr15.py``: the two-event port; ``host_pr17.py``: the
eager timer and the cancel-and-reschedule send loop).  Their contract
is that nothing simulated moved: with the event count and the
engine-profile block blanked (both count heap events, which is the one
thing such a PR *does* change), a run's ``ResultSummary`` must have the
same ``canonical_bytes`` with and without the oracle — ``sim_time``, the
clock the run ended at, included — and the same per-flow FCT records.

``switch_pr22.py`` (the push-style switch hop) changes no event count,
so its file compares the summary whole, profile block included.

The oracle test files (``test_port_oracle.py``, ``test_host_oracle.py``,
``test_switch_oracle.py``) check the same named configs — the registry
matrix, the full-length ones, ``SMALL_RPC`` — so the live run of those
is memoized: a config checked against all three oracles costs four
runs, not six.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from functools import lru_cache
from typing import Callable, Tuple

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.experiments import ResultSummary, registry, run_scenario, summarize
from repro.experiments.scenario import FLOW_CONTROLS, PATTERNS, ScenarioConfig
from repro.faults.plan import FaultPlan, LinkDown, RandomLoss
from repro.rpc.spec import RpcWorkloadSpec
from repro.telemetry.registry import TelemetryConfig
from repro.units import us


def unblanked(cfg: ScenarioConfig) -> Tuple[ResultSummary, int]:
    """Summary of one run, whole, and its event count."""
    summary = summarize(run_scenario(cfg))
    return summary, summary.events


def _blank(summary: ResultSummary) -> ResultSummary:
    """``summary`` with everything that counts heap events zeroed."""
    telemetry = summary.telemetry
    if telemetry is not None:
        meta = {k: v for k, v in telemetry.meta.items() if k != "events"}
        telemetry = dataclasses.replace(telemetry, profile=None, meta=meta)
    return dataclasses.replace(summary, events=0, telemetry=telemetry)


def blanked(cfg: ScenarioConfig) -> Tuple[ResultSummary, int]:
    summary, events = unblanked(cfg)
    return _blank(summary), events


#: the live code's run of a named config, shared between the oracle
#: files: whole for an oracle that changes no event count
#: (``test_switch_oracle.py``), blanked for the two that do
shared_live_unblanked = lru_cache(maxsize=None)(unblanked)


def shared_live(cfg: ScenarioConfig) -> Tuple[ResultSummary, int]:
    summary, events = shared_live_unblanked(cfg)
    return _blank(summary), events


def assert_same_simulation(
    cfg: ScenarioConfig,
    install: Callable,
    monkeypatch,
    live: Callable = shared_live,
    oracle: Callable = blanked,
) -> Tuple[ResultSummary, int, int]:
    """Run ``cfg`` live and again under ``install(patch)``; everything
    simulated must be equal.  Returns the live summary and
    ``(live_events, oracle_events)`` for the caller's proof that the
    oracle really ran.  Hypothesis draws pass ``live=blanked``: each
    file draws its own, so a memoized run would only sit in memory.
    ``oracle`` summarizes the grafted run the way ``live`` does its own
    (``blanked`` / ``unblanked``)."""
    new, new_events = live(cfg)
    with monkeypatch.context() as patch:
        install(patch)
        old, old_events = oracle(cfg)
    assert new.stats.fct_records == old.stats.fct_records
    # StatsHub has no __eq__: the summary's identity is its canonical bytes
    assert new.canonical_bytes() == old.canonical_bytes()
    return new, new_events, old_events


#: arrivals window of the registry matrix: long enough for incast,
#: PFC, VOQ parking and retransmission on every fabric, short enough
#: that 6 schemes x 10 configs x 3 runs stay inside tier-1's budget
MATRIX_DURATION = us(60)

PACKET_CONFIGS = [
    pytest.param(cfg, id=f"{name}[{i}]")
    for name in registry.names()
    for i, cfg in enumerate(registry.get(name).configs)
    if cfg.fidelity == "packet"
]


def matrix_config(cfg: ScenarioConfig, flow_control: str) -> ScenarioConfig:
    """A registry config under ``flow_control`` on the matrix window."""
    return replace(
        cfg,
        flow_control=flow_control,
        duration=min(cfg.duration, MATRIX_DURATION),
    )


#: faulted links keep the tx-done path while their neighbours fuse: a
#: loss draw per delivery, a link that dies mid-serialization.  For the
#: hosts the same plan is what makes go-back-N work: lost data and ACKs
#: (NACK and RTO rewinds, and the kick each ends in), a dead uplink.
FABRIC_FAULTS = FaultPlan(
    faults=(
        RandomLoss(start=us(5), link="switch-switch", data_rate=0.02, ctrl_rate=0.02),
        LinkDown(at=us(30), link="tor0<->spine0", duration=us(25)),
    )
)


def edge_faults() -> FaultPlan:
    """The same on host links: the sharded engine only accepts faults
    on intra-domain links."""
    return FaultPlan(
        faults=(
            RandomLoss(start=us(5), link="host-switch", data_rate=0.02, ctrl_rate=0.02),
        )
    )


def on_shards(cfg: ScenarioConfig, shards: int, faulted: bool) -> ScenarioConfig:
    """``cfg`` on ``shards`` domains, with the fault plan its sharding admits."""
    if faulted:
        plan = FABRIC_FAULTS if shards == 1 else edge_faults()
        cfg = replace(cfg, fault_plan=plan)
    return replace(cfg, shards=shards)


#: drawn fields that only some schemes or patterns read
_DRAWN = ("per_dst_pause", "workload", "poisson_load", "incast_load")


def drawn_config(**fields) -> ScenarioConfig:
    """A ``ScenarioConfig`` whose drawn scheme and pattern knobs are kept
    only under a row that reads them (any other rejects them)."""
    reads = FLOW_CONTROLS[fields["flow_control"]].reads + PATTERNS[fields["pattern"]].reads
    return ScenarioConfig(
        **{name: value for name, value in fields.items() if name not in _DRAWN or name in reads}
    )


#: scheme / cc / pattern / load / buffer / dstPause / rto / shards / faults
small_configs = st.builds(
    on_shards,
    st.builds(
        drawn_config,
        flow_control=st.sampled_from(tuple(FLOW_CONTROLS)),
        cc=st.sampled_from(["dcqcn", "hpcc", "timely"]),
        pattern=st.sampled_from(["incastmix", "poisson", "incast"]),
        workload=st.just("webserver"),
        n_tors=st.integers(min_value=2, max_value=3),
        hosts_per_tor=st.integers(min_value=2, max_value=4),
        poisson_load=st.sampled_from([0.3, 0.8, 1.2]),
        incast_load=st.sampled_from([0.3, 0.9]),
        buffer_bytes=st.sampled_from([0, 60_000]),
        # Floodgate's dstPause/dstResume: a resume kicks every flow to the dst
        per_dst_pause=st.booleans(),
        # 0 derives 20 base RTTs; 40 us sits inside the queueing delay, so
        # timers expire with data in flight and re-arm from their callback
        rto=st.sampled_from([0, us(40)]),
        duration=st.just(us(80)),
        seed=st.integers(min_value=1, max_value=10_000),
        # telemetry puts the profile block in the summary
        telemetry=st.sampled_from([None, TelemetryConfig()]),
    ),
    shards=st.sampled_from([1, 2]),
    faulted=st.booleans(),
)

#: for tests drawing from ``small_configs`` with a ``monkeypatch`` fixture
small_config_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


#: closed-loop rpc on a fabric small enough to run in full
SMALL_RPC = ScenarioConfig(
    flow_control="floodgate",
    pattern="rpc",
    rpc=RpcWorkloadSpec(n_clients=3, fan_out=3, think_time=us(10)),
    n_tors=3,
    hosts_per_tor=3,
    duration=us(150),
    seed=9,
)
