"""Collecting a finished run, one scope at a time.

A *scope* is the slice of a built scenario one engine ran: the whole
fabric on a serial run, one domain on a sharded one.  When the run is
over, :func:`collect_scope` closes the scope's books and returns a
picklable :class:`ScopeReport`; the run merge
(:func:`repro.experiments.runner.merge_reports`) folds N >= 1 reports
into the result.  No run becomes an outcome any other way, so a serial
run is exactly the one-report case of a sharded one.

The optional layers (telemetry, sanitizer, switch extensions) are
touched only through the objects the scope carries, and only when
present: a run without them executes none of their code.  Every
end-of-run number lands on the scope's hub, through its ``record_*``
sinks, so the merge folds hubs and the export reads the merged one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.stats.collector import StatsHub
from repro.units import us

#: the run's one check cadence, in ns: the serial loop and the sharded
#: window loop test for completion, and the sanitizer sweeps, at every
#: multiple of it
CHECK_INTERVAL = us(100)


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
    property that makes one merge sufficient.  Every end-of-run number
    is on the hub; the rest is what a hub cannot merge.
    """

    domain: int
    #: the scope's hub; the merge folds them in domain order
    stats: StatsHub
    total_flows: int
    events: int
    #: raw telemetry recording, None when telemetry is off
    series: Optional[list] = None
    profile: Optional[dict] = None
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
    hub = scope.hub
    for ext in scope.extensions:
        stop = getattr(ext, "stop", None)
        if stop is not None:
            stop()
        pool = getattr(ext, "pool", None)
        if pool is not None:
            hub.record_voqs_used(pool.max_in_use)
        counters = getattr(ext, "telemetry_counters", None)
        if counters is not None:
            # bare names are Floodgate's; the others carry their scheme
            hub.record_extension_counters(
                {
                    name if "." in name else f"floodgate.{name}": value
                    for name, value in counters().items()
                }
            )
    # only a flow's sender counts its retransmissions, so per-scope
    # sums are disjoint
    owned = {node.node_id for node in (*scope.hosts, *scope.switches)}
    flow_table = scenario.topology.flow_table
    hub.record_retransmissions(
        sum(
            f.retransmitted_packets
            for f in flow_table.values()
            if f.src in owned
        )
    )
    report = ScopeReport(
        domain=scope.domain,
        stats=hub,
        total_flows=len(flow_table),
        events=sim.events_executed,
    )
    recorder = scope.recorder
    if recorder is not None:
        recorder.stop()
        report.series = recorder.raw_series()
        report.profile = recorder.raw_profile()
    if scope.sanitizer is not None:
        report.ledger = scope.sanitizer.final_check()
        report.violations = list(scope.sanitizer.violations)
    return report
