"""Collecting a finished run, one scope at a time.

A *scope* is the slice of a built scenario one engine ran: the whole
fabric on a serial run, one domain on a sharded one.  When the run is
over, :func:`collect_scope` closes the scope's books and returns a
picklable :class:`ScopeReport`; the run merge
(:func:`repro.experiments.runner.merge_reports`) folds N >= 1 reports
into the result.  No run becomes an outcome any other way, so a serial
run is exactly the one-report case of a sharded one.

The optional layers (telemetry, sanitizer, fault injection, switch
extensions) are touched only through the objects the scope carries,
and only when present: a run without them executes none of their code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.stats.collector import StatsHub


class Scope(NamedTuple):
    """What :func:`collect_scope` reads; any object with these
    attributes will do (a sharded ``DomainRuntime`` passes itself)."""

    domain: int
    sim: object  # the engine that ran the scope's events
    hub: StatsHub  # what the scope's devices recorded into
    hosts: list
    switches: list
    extensions: list
    recorder: Optional[object]  # telemetry recorder, or None
    sanitizer: Optional[object]  # sanitizer (slice), or None


def whole_fabric(scenario) -> Scope:
    """The serial case: one scope spanning everything the scenario built."""
    topo = scenario.topology
    return Scope(
        0, scenario.sim, scenario.stats, topo.hosts, topo.switches,
        scenario.extensions, scenario.telemetry, scenario.sanitizer,
    )


@dataclass
class ScopeReport:
    """Everything one scope contributes to the merged result.

    Picklable, and field-for-field the same whichever way the scope was
    executed (serially, in-process windows, a forked worker) — the
    property that makes one merge sufficient.
    """

    domain: int
    #: the scope's hub; the merge folds them in domain order
    stats: StatsHub
    completed: int
    total_flows: int
    events: int
    max_voqs: int
    retransmitted: int
    #: one ``telemetry_counters()`` dict per switch extension owned
    ext_harvests: List[Dict[str, int]] = field(default_factory=list)
    #: raw telemetry recording, None when telemetry is off
    series: Optional[list] = None
    profile: Optional[dict] = None
    #: the plan's static shape plus this scope's injection counters,
    #: None without injected faults
    fault_summary: Optional[Dict[str, int]] = None
    #: sanitizer: the scope's violations and final conservation ledger
    #: (a whole-fabric scope has judged its own; the window loop sums
    #: and judges domain ledgers)
    violations: List[str] = field(default_factory=list)
    ledger: Optional[Dict[str, int]] = None


def collect_scope(scenario, scope, now: int) -> ScopeReport:
    """Close the books of one scope at simulated time ``now``; call once."""
    sim = scope.sim
    if sim.now < now:
        sim.now = now
    scenario.topology.report_to_hub()
    max_voqs = 0
    for ext in scope.extensions:
        stop = getattr(ext, "stop", None)
        if stop is not None:
            stop()
        pool = getattr(ext, "pool", None)
        if pool is not None and pool.max_in_use > max_voqs:
            max_voqs = pool.max_in_use
    # only a flow's sender counts its retransmissions, and only a
    # link's owner its injected faults, so per-scope sums are disjoint
    owned = {node.node_id for node in (*scope.hosts, *scope.switches)}
    flow_table = scenario.topology.flow_table
    report = ScopeReport(
        domain=scope.domain,
        stats=scope.hub,
        completed=len(scope.hub.fct_records),
        total_flows=len(flow_table),
        events=sim.events_executed,
        max_voqs=max_voqs,
        retransmitted=sum(
            f.retransmitted_packets
            for f in flow_table.values()
            if f.src in owned
        ),
    )
    recorder = scope.recorder
    if recorder is not None:
        recorder.stop()
        report.ext_harvests = recorder.harvest(scope.extensions)
        report.series = recorder.raw_series()
        report.profile = recorder.raw_profile()
    if scenario.fault_injector is not None:
        report.fault_summary = scenario.fault_injector.summary(
            lambda link: link.node_a.node_id in owned
        )
    if scope.sanitizer is not None:
        report.ledger = scope.sanitizer.final_check()
        report.violations = list(scope.sanitizer.violations)
    return report
