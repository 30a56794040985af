"""Run a scenario to completion and package the results.

The runner drives the simulator in chunks, stopping early once every
scheduled flow has delivered all its bytes (plus a drain margin), and
then extracts the aggregates the paper's figures report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.flowsim.model import FluidSimulation
from repro.stats.collector import NON_INCAST, FlowClass, FlowSelector, StatsHub
from repro.stats.fct import FctSummary, summarize_fct
from repro.stats.rpc import RpcSummary, requests_per_sec, summarize_rpc
from repro.telemetry.export import TelemetryExport
from repro.units import us


class StatsViews:
    """The figure-facing views over a finished run's stats.

    Shared by :class:`ScenarioResult` and the picklable
    :class:`~repro.experiments.parallel.ResultSummary`; both provide
    ``stats``, ``sim_time``, ``completed_flows`` and ``total_flows``.
    A plain mixin (no fields), so it changes neither dataclass's
    layout nor ``ResultSummary.canonical_bytes()``.
    """

    stats: StatsHub
    sim_time: int
    completed_flows: int
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

    def per_hop_buffers_mb(self, roles: List[str]) -> Dict[str, float]:
        return {r: self.max_port_buffer_mb(r) for r in roles}

    # -- PFC ----------------------------------------------------------------------

    def pfc_paused_us(self, node_kind: str) -> float:
        return self.stats.total_pfc_paused_us(node_kind)

    @property
    def pfc_triggered(self) -> bool:
        return self.stats.pfc_pause_events > 0

    @property
    def pfc_pause_events(self) -> int:
        return self.stats.pfc_pause_events

    # -- completion ---------------------------------------------------------------

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


@dataclass
class ScenarioResult(StatsViews):
    """Everything a figure needs from one run."""

    config: ScenarioConfig
    stats: StatsHub
    scenario: Scenario
    completed_flows: int = 0
    total_flows: int = 0
    sim_time: int = 0
    wall_seconds: float = 0.0
    events: int = 0
    #: finalized telemetry export, None unless the config enabled it
    telemetry: Optional[TelemetryExport] = None
    #: invariant violations the sanitizer collected; empty both for
    #: clean sanitized runs and for unsanitized runs
    sanitizer_violations: List[str] = field(default_factory=list)
    #: sharded runs only (None everywhere else): the merge in
    #: repro.sim.sharded fills all six from the per-domain reports,
    #: whichever transport ran the domains — a forked run leaves the
    #: in-memory scenario unexecuted, so nothing below may be read off
    #: the local extension/flow-table/injector instead.
    shard_max_voqs: Optional[int] = None
    shard_retransmitted: Optional[int] = None
    #: injected-fault counters; None without injected faults
    shard_fault_summary: Optional[Dict[str, int]] = None
    #: per-domain event-stream digests (hex), populated only when the
    #: determinism harness requests them
    shard_digests: Optional[List[str]] = None
    #: lockstep-mode global digest (hex), byte-comparable to a serial
    #: run's depth-free EventStreamDigest
    shard_global_digest: Optional[str] = None
    #: cross-domain mutations the isolation sanitizer caught under
    #: ``check --sharded --isolate``; None when isolation was off
    shard_isolation_violations: Optional[List[str]] = None

    # -- Floodgate internals ---------------------------------------------------------

    @property
    def max_voqs_used(self) -> int:
        if self.shard_max_voqs is not None:
            return self.shard_max_voqs
        return max(
            (
                ext.pool.max_in_use
                for ext in self.scenario.extensions
                if hasattr(ext, "pool")
            ),
            default=0,
        )

    # -- fault injection --------------------------------------------------------

    @property
    def fault_summary(self) -> Dict[str, int]:
        """Injected-fault counters, or {} when no plan was installed."""
        if self.shard_fault_summary is not None:
            return self.shard_fault_summary
        injector = self.scenario.fault_injector
        return injector.summary() if injector is not None else {}

    @property
    def retransmitted_packets(self) -> int:
        """Go-back-N/NDP retransmissions summed over every flow."""
        if self.shard_retransmitted is not None:
            return self.shard_retransmitted
        return sum(
            f.retransmitted_packets
            for f in self.scenario.topology.flow_table.values()
        )


def run_scenario(
    config: ScenarioConfig,
    scenario: Optional[Scenario] = None,
    check_interval: int = us(100),
    isolate: bool = False,
) -> ScenarioResult:
    """Build (unless given), schedule, and run a scenario to completion."""
    wall_start = time.monotonic()  # simcheck: ignore[SIM002] -- wall time for reporting only
    sc = scenario if scenario is not None else Scenario(config)
    if sc.config.shards > 1:
        # conservative-parallel path: partition the topology into
        # domains and run them concurrently (repro.sim.sharded).  The
        # serial loop below stays byte-for-byte untouched at shards=1.
        from repro.sim.sharded import run_sharded_scenario

        return run_sharded_scenario(
            sc, check_interval, wall_start, isolate=isolate
        )
    fluid = None
    if sc.config.fidelity == "flow":
        # fluid tier: same Scenario build (topology, routes, traffic,
        # CC/flow-control parameters), but flows evolve as rates on the
        # event loop instead of packets — see repro.flowsim
        fluid = FluidSimulation(sc)
        fluid.schedule()
    elif sc.config.fidelity == "hybrid":
        # hybrid tier: hot racks run the packet engine, everything else
        # the fluid model, stitched at the rack uplinks — see
        # repro.hybrid (it subclasses FluidSimulation, so the fluid
        # plumbing below applies to its cold tier too)
        from repro.hybrid.model import HybridSimulation

        fluid = HybridSimulation(sc)
        fluid.schedule()
    else:
        sc.schedule_flows()
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
        next_stop = min(sim.now + check_interval, hard_end)
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
    total = len(topo.flow_table)
    topo.report_pause_times()
    if sc.watchdog is not None:
        if topo.completed_flows < total:
            # ended (hard stop or drain) with flows stranded: make sure
            # the stall is on the record even if the last watchdog
            # window never elapsed
            sc.watchdog.note_drained()
        sc.watchdog.stop()
    for ext in sc.extensions:
        stop = getattr(ext, "stop", None)
        if stop is not None:
            stop()
    if sc.hybrid is not None:
        sc.hybrid.stop()
    telemetry = sc.telemetry.finalize() if sc.telemetry is not None else None
    violations: List[str] = []
    if sc.sanitizer is not None:
        sc.sanitizer.final_check()
        violations = list(sc.sanitizer.violations)
    # canonical record order: makes serial and sharded runs (which
    # merge per-domain stats) produce identical summary bytes
    sc.stats.canonicalize()
    return ScenarioResult(
        config=cfg,
        stats=sc.stats,
        scenario=sc,
        completed_flows=topo.completed_flows,
        total_flows=total,
        sim_time=sim.now,
        wall_seconds=time.monotonic() - wall_start,  # simcheck: ignore[SIM002] -- wall time for reporting only
        events=sim.events_executed,
        telemetry=telemetry,
        sanitizer_violations=violations,
    )
