"""Run a scenario to completion and package the results.

The runner drives the simulator in chunks, stopping early once every
scheduled flow has delivered all its bytes (plus a drain margin).
Every run then ends the same way: each scope that executed events is
collected into a report (:func:`repro.stats.scope.collect_scope` — the
whole fabric here, one per domain under :mod:`repro.sim.sharded`) and
:func:`merge_reports` folds the reports into the
:class:`ScenarioResult` the paper's figures read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union

# The fluid tier loads in the branch that builds it, but its max-min
# kernel (one stdlib-only module) loads with every run: the benchmark's
# traced pass asks that module whether ``max_min_rates`` still exists,
# and a module first imported by that question would read as a trace
# the pass left behind (benchmarks/e2e/test_e2e_bench.py).
import repro.flowsim.maxmin  # noqa: F401
from repro.experiments.choices import FIDELITIES, load
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.stats.collector import NON_INCAST, FlowClass, FlowSelector, StatsHub
from repro.stats.fct import FctSummary, summarize_fct
from repro.stats.rpc import RpcSummary, requests_per_sec, summarize_rpc
from repro.stats.scope import CHECK_INTERVAL, ScopeReport, collect_scope, whole_fabric

if TYPE_CHECKING:
    from repro.telemetry.export import TelemetryExport


class StatsViews:
    """The figure-facing views over a finished run's stats.

    A plain mixin (no fields) under :class:`RunOutcome`, which provides
    ``stats``, ``sim_time`` and ``total_flows``; every other number is
    read off the hub.
    """

    stats: StatsHub
    sim_time: int
    total_flows: int

    # -- FCT ---------------------------------------------------------------------

    @property
    def poisson_fct(self) -> FctSummary:
        """Avg/p99 over all non-incast flows (the paper's Fig. 8 metric)."""
        return summarize_fct(self.stats.fct_of_class(NON_INCAST))

    @property
    def incast_fct(self) -> FctSummary:
        return summarize_fct(self.stats.fct_of_class(FlowClass.INCAST))

    def fct_summary(self, cls: Union[FlowClass, FlowSelector]) -> FctSummary:
        return summarize_fct(self.stats.fct_of_class(cls))

    # -- request-level SLOs (closed-loop rpc workloads) --------------------

    @property
    def rpc_summary(self) -> RpcSummary:
        """p50/p99/p999 request latency (empty summary if not rpc)."""
        return summarize_rpc(self.stats.rpc_records)

    @property
    def completed_requests(self) -> int:
        return len(self.stats.rpc_records)

    @property
    def requests_per_sec(self) -> float:
        """Achieved request throughput over the simulated window."""
        return requests_per_sec(self.completed_requests, self.sim_time)

    # -- buffers ------------------------------------------------------------------

    @property
    def max_switch_buffer_mb(self) -> float:
        return self.stats.max_switch_buffer / 1e6

    def max_port_buffer_mb(self, role: str) -> float:
        return self.stats.max_port_buffer_by_role(role) / 1e6

    def per_hop_buffers_mb(self, roles: Iterable[str]) -> Dict[str, float]:
        return {r: self.max_port_buffer_mb(r) for r in roles}

    # -- PFC ----------------------------------------------------------------------

    def pfc_paused_us(self, node_kind: str) -> float:
        return self.stats.total_pfc_paused_us(node_kind)

    @property
    def pfc_pause_events(self) -> int:
        return self.stats.pfc_pause_events

    # -- completion ---------------------------------------------------------------

    @property
    def completed_flows(self) -> int:
        return len(self.stats.fct_records)

    @property
    def completion_rate(self) -> float:
        if self.total_flows == 0:
            return 1.0
        return self.completed_flows / self.total_flows

    # -- faults -------------------------------------------------------------------

    @property
    def stall_events(self) -> int:
        return self.stats.stall_events

    @property
    def fault_drops_total(self) -> int:
        return self.stats.fault_drops_total

    # -- transport and switch extensions --------------------------------------------

    @property
    def retransmitted_packets(self) -> int:
        """Go-back-N/NDP retransmissions summed over every flow."""
        return self.stats.retransmitted_packets

    @property
    def max_voqs_used(self) -> int:
        """Max VOQs in use on any one switch (Floodgate, PFC w/ tag)."""
        return self.stats.max_voqs_used


@dataclass
class RunOutcome(StatsViews):
    """One run's outcome as plain data: what :class:`ScenarioResult`
    and the picklable :class:`~repro.experiments.parallel.ResultSummary`
    share (the field order is part of ``canonical_bytes()``)."""

    config: ScenarioConfig
    stats: StatsHub
    total_flows: int = 0
    sim_time: int = 0
    events: int = 0
    #: telemetry export (plain data, so it pickles across the pool and
    #: into the cache byte-identically), None unless enabled
    telemetry: Optional[TelemetryExport] = None
    #: invariant violations from the opt-in sanitizer (repro.simcheck);
    #: empty for clean sanitized runs and for unsanitized runs
    sanitizer_violations: List[str] = field(default_factory=list)


@dataclass(kw_only=True)
class ScenarioResult(RunOutcome):
    """Everything a figure needs from one run, plus the live scenario.

    Built only by :func:`merge_reports`, from per-scope reports — never
    read off the scenario, which a forked sharded run leaves unexecuted.
    """

    scenario: Scenario
    wall_seconds: float = 0.0


def merge_reports(
    scenario: Scenario,
    now: int,
    reports: List[ScopeReport],
    violations: List[str],
    wall_start: float,
) -> ScenarioResult:
    """Fold N >= 1 scope reports into the run's :class:`ScenarioResult`.

    A serial run hands in the single whole-fabric report, a sharded run
    one per domain (:func:`repro.sim.sharded.run_domains`) plus the
    whole-fabric conservation ``violations`` only its window loop could
    judge.  It folds hubs (each measurement by its ``MEASURES`` rule),
    event counts and violations — nothing else is on a report — so N
    reports give the result one would.  The scenario hub holds what
    never belonged to a domain — build-time registrations every domain
    hub was cloned from (the union merges dedup them), the rpc driver's
    request records, the stall watchdog's episodes — and, on a serial
    run, everything else.
    """
    cfg = scenario.config
    stats = scenario.stats
    found: List[str] = []
    for report in reports:
        if report.stats is not stats:  # the whole-fabric scope *is* the run hub
            stats.merge_from(report.stats)
        found.extend(report.violations)
    total = reports[0].total_flows
    watchdog = scenario.watchdog
    if watchdog is not None:
        if len(stats.fct_records) < total:
            # ended (hard stop or drain) with flows stranded: make sure
            # the stall is on the record even if the last watchdog
            # window never elapsed
            watchdog.note_drained()
        watchdog.stop()
    if scenario.hybrid is not None:
        scenario.hybrid.stop()
    # canonical record order: makes serial and sharded runs produce
    # identical summary bytes
    stats.canonicalize()
    result = ScenarioResult(
        config=cfg,
        stats=stats,
        scenario=scenario,
        total_flows=total,
        sim_time=now,
        wall_seconds=time.monotonic() - wall_start,  # simcheck: ignore[SIM002] -- wall time for reporting only
        events=sum(r.events for r in reports),
        sanitizer_violations=found + violations,
    )
    if cfg.telemetry is not None:
        from repro.telemetry.recorder import build_export

        result.telemetry = build_export(result, reports)
    return result


def run_scenario(
    config: ScenarioConfig,
    scenario: Optional[Scenario] = None,
) -> ScenarioResult:
    """Build (unless given), schedule, and run a scenario to completion."""
    wall_start = time.monotonic()  # simcheck: ignore[SIM002] -- wall time for reporting only
    sc = scenario if scenario is not None else Scenario(config)
    if sc.config.shards > 1:
        # conservative-parallel path: partition the topology into
        # domains and run them concurrently (repro.sim.sharded).  The
        # serial loop below stays byte-for-byte untouched at shards=1.
        from repro.sim.sharded import run_domains

        run = run_domains(sc)
        return merge_reports(
            sc, run.now, run.reports, run.violations, wall_start
        )
    fluid = None
    engine = FIDELITIES[sc.config.fidelity].engine
    if engine is None:
        sc.schedule_flows()
    else:
        # an approximate tier: same Scenario build, but its engine
        # evolves flows as rates (repro.flowsim; repro.hybrid runs its
        # hot racks as packets)
        fluid = load(engine)(sc)
        fluid.schedule()
    driver = sc.rpc_driver
    if driver is not None:
        driver.start(fluid)
    sim = sc.sim
    cfg = sc.config
    topo = sc.topology
    hard_end = int(cfg.duration * cfg.max_runtime_factor)
    # completion is an O(1) counter kept by the hosts' flow-done
    # callbacks (Topology.completed_flows), not an O(total) table scan.
    # Closed-loop drivers grow the flow table while the run progresses,
    # so `total` is re-read each check rather than captured once.
    while True:
        next_stop = min(sim.now + CHECK_INTERVAL, hard_end)
        sim.run(until=next_stop)
        total = len(topo.flow_table)
        if topo.completed_flows >= total and (
            driver is None or driver.finished
        ):
            break
        if sim.now >= hard_end:
            break
        if sim.peek_next_time() is None:
            break  # drained without completing (e.g. unrecovered loss)
    report = collect_scope(sc, whole_fabric(sc), sim.now)
    return merge_reports(sc, sim.now, [report], [], wall_start)
