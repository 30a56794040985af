"""Wire a scenario to telemetry instruments and build the run export.

One recorder serves every execution mode.  A :class:`DomainRecorder`
samples only state its domain owns (its hub, its hosts, its switches)
and records *raw cumulative integers* rather than derived rates;
:func:`build_export` merges any number of such recordings into one
:class:`TelemetryExport`.  A serial run is the one-domain case
(:class:`TelemetryRecorder`: the domain is the whole fabric), a sharded
run (:mod:`repro.sim.sharded`) wires one recorder per domain — a
fabric-wide read there would cross domain boundaries mid-window,
exactly the SIM008 pattern the shard-safety lints reject.  The merge
reproduces, byte for byte, what one fabric-wide recorder exports:

* rate series (``rx_gbps.*``): per-timestamp sums of the per-domain
  integer cumulatives equal the fabric-wide counter reads (every domain
  ticks at the same instants, and the conservative-window invariant
  means each tick observes exactly the serial cut of its own state),
  so differentiating the summed series replays the same float
  arithmetic on identical integers;
* gauge sums (``buffer_bytes.total``, counter series): per-timestamp
  integer sums across domains;
* single-owner gauges (``buffer_bytes.<switch>``): recorded by exactly
  one domain and passed through verbatim.

Histograms and end-of-run counters live on the hubs and merge by their
``MEASURES`` rules (:meth:`StatsHub.merge_from`; power-of-two bins make
the histogram merge exact).  The engine profile is the one deliberately
non-identical surface: a sharded run executes extra observer ticks and
per-domain heaps have different depths, so the equivalence harness
strips it before comparing.

Everything recorded is polled or is-None-gated, so a run with
``telemetry=None`` is bit-identical to one built before this module
existed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.stats.collector import FlowClass
from repro.telemetry.export import TelemetryExport
from repro.telemetry.profile import callback_name
from repro.telemetry.registry import Histogram, TelemetryConfig
from repro.telemetry.samplers import GaugeSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.scenario import Scenario
    from repro.sim.engine import Simulator
    from repro.stats.collector import StatsHub

#: merge rules for raw per-domain series
KIND_RATE = "rate"  # per-timestamp int sum, then differentiate
KIND_SUM = "sum"    # per-timestamp int sum
KIND_ONE = "one"    # recorded by exactly one domain; pass through


class _CumulativeSampler(GaugeSampler):
    """Records raw monotone counter values for a post-run rate merge.

    :class:`~repro.telemetry.samplers.RateSampler` differentiates at
    tick time; a domain cannot (its counter is only one summand of the
    fabric-wide value), so it records the raw cumulative and keeps the
    baseline a rate sampler would have subtracted at ``start()``.
    """

    def __init__(
        self,
        sim: "Simulator",
        sources: Dict[str, Callable[[], int]],
        interval: int,
        scale: float = 1.0,
        unit: str = "",
    ) -> None:
        super().__init__(sim, sources, interval, unit)
        self.scale = scale
        self.baseline: Dict[str, int] = {name: 0 for name in sources}
        self.start_time = 0

    def start(self) -> None:
        for name, fn in self.sources.items():
            self.baseline[name] = fn()
        self.start_time = self.sim.now
        super().start()


class DomainRecorder:
    """One domain's samplers, hub histograms, and engine event counts.

    Wiring order (throughput, buffers, counters, histograms) is the
    same for every domain, so per-domain event schedules stay a
    restriction of the one-domain schedule.
    """

    def __init__(
        self,
        sim: "Simulator",
        config: TelemetryConfig,
        hub: "StatsHub",
        hosts: list,
        switches: list,
    ) -> None:
        self.config = config
        self.sim = sim
        cfg = config
        #: (series name -> merge kind, sampler) in wiring order
        self._samplers: List[Tuple[Dict[str, str], GaugeSampler]] = []

        sources: Dict[str, Callable[[], int]] = {
            f"rx_gbps.{cls.value}": (
                lambda s=hub, c=cls: s.rx_bytes_of_class(c)
            )
            for cls in FlowClass
        }
        sources["rx_gbps.total"] = lambda hs=tuple(hosts): sum(
            h.rx_data_bytes for h in hs
        )
        self._samplers.append(
            (
                {name: KIND_RATE for name in sources},
                _CumulativeSampler(
                    sim, sources, cfg.interval, scale=8.0, unit="gbps"
                ),
            )
        )

        gauges: Dict[str, Callable[[], int]] = {}
        kinds = {}
        for sw in switches:
            name = f"buffer_bytes.{sw.name}"
            gauges[name] = lambda s=sw: s.buffer.used if s.buffer is not None else 0
            kinds[name] = KIND_ONE
        gauges["buffer_bytes.total"] = lambda fns=tuple(gauges.values()): sum(
            f() for f in fns
        )
        kinds["buffer_bytes.total"] = KIND_SUM
        self._samplers.append(
            (kinds, GaugeSampler(sim, gauges, cfg.interval, unit="bytes"))
        )

        counter_sources = {
            "pfc_pause_events": lambda s=hub: s.pfc_pause_events,
            "packets_dropped": lambda s=hub: s.packets_dropped,
        }
        self._samplers.append(
            (
                {name: KIND_SUM for name in counter_sources},
                GaugeSampler(sim, counter_sources, cfg.interval, unit="count"),
            )
        )

        # streaming: StatsHub feeds these behind is-None checks, and
        # StatsHub.merge_from folds per-domain instances exactly
        hub.fct_histogram = Histogram("fct_ns", unit="ns")
        hub.queuing_histogram = Histogram("queuing_ns", unit="ns")

        # the engine counts its own events; raw_profile() reads them
        if cfg.engine_profile:
            sim.count_callbacks()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for _, sampler in self._samplers:
            sampler.start()

    def stop(self) -> None:
        for _, sampler in self._samplers:
            sampler.stop()

    # -- raw payload (picklable; crosses the forked transport's pipe) --------

    def raw_series(self) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        for kinds, sampler in self._samplers:
            for name in sampler.samples:
                out.append(
                    {
                        "kind": kinds[name],
                        "name": name,
                        "unit": sampler.unit,
                        "scale": getattr(sampler, "scale", 1.0),
                        "baseline": getattr(sampler, "baseline", {}).get(name, 0),
                        "start_time": getattr(sampler, "start_time", 0),
                        "points": sampler.samples[name],
                    }
                )
        return out

    def raw_profile(self) -> Optional[Dict[str, Any]]:
        """The engine's per-function counts, named (two functions can
        share a label: every lambda of one scope, every ``partial``)."""
        if not self.config.engine_profile:
            return None
        counts: Dict[str, int] = {}
        for fn, count in self.sim.callback_counts.items():
            name = callback_name(fn)
            counts[name] = counts.get(name, 0) + count
        return {
            "events": sum(counts.values()),
            "max_heap_depth": self.sim.max_heap_depth,
            "counts": counts,
        }


def wire_rpc_histogram(scenario: "Scenario") -> None:
    """Request latencies record on the scenario hub, the driver's own sink.

    Separate from the per-domain wiring because a closed-loop driver
    belongs to the run, not to a domain: under shards the per-domain
    hubs carry fct/queuing only.
    """
    if scenario.rpc_driver is not None:
        scenario.stats.rpc_histogram = Histogram("rpc_latency_ns", unit="ns")


class TelemetryRecorder(DomainRecorder):
    """The serial case: one domain spanning the whole fabric."""

    def __init__(self, scenario: "Scenario", config: TelemetryConfig) -> None:
        topo = scenario.topology
        super().__init__(
            scenario.sim, config, scenario.stats, topo.hosts, topo.switches
        )
        wire_rpc_histogram(scenario)


# ---------------------------------------------------------------------------
# merging per-domain recordings
# ---------------------------------------------------------------------------


def _check_aligned(name: str, columns: List[List[Tuple[int, int]]]) -> None:
    times = [[t for t, _ in col] for col in columns]
    if any(ts != times[0] for ts in times[1:]):
        raise AssertionError(
            f"telemetry misalignment on series {name!r}: domains "
            "sampled at different instants (window-loop bug)"
        )


def merge_raw_series(per_domain: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Merge per-domain raw series into export series, sorted by name.

    ``per_domain`` is indexed by domain; merge order is domain order,
    but every rule here (sum, pass-through, differentiate-after-sum) is
    order-independent, so the output is a function of content only.
    """
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for series_list in per_domain:
        for rec in series_list:
            by_name.setdefault(rec["name"], []).append(rec)
    out = []
    for name in sorted(by_name):
        recs = by_name[name]
        kind = recs[0]["kind"]
        unit = recs[0]["unit"]
        if kind == KIND_ONE:
            if len(recs) != 1:
                raise AssertionError(
                    f"single-owner series {name!r} recorded by "
                    f"{len(recs)} domains"
                )
            points = [[t, v] for t, v in recs[0]["points"]]
        elif kind == KIND_SUM:
            cols = [rec["points"] for rec in recs]
            _check_aligned(name, cols)
            points = [
                [cols[0][i][0], sum(col[i][1] for col in cols)]
                for i in range(len(cols[0]))
            ]
        else:  # KIND_RATE: sum the cumulatives, then differentiate
            cols = [rec["points"] for rec in recs]
            _check_aligned(name, cols)
            scale = recs[0]["scale"]
            last = sum(rec["baseline"] for rec in recs)
            last_time = recs[0]["start_time"]
            points = []
            for i in range(len(cols[0])):
                now = cols[0][i][0]
                elapsed = now - last_time
                if elapsed <= 0:
                    continue  # same-instant tick (restart artifact): no window yet
                current = sum(col[i][1] for col in cols)
                points.append([now, (current - last) * scale / elapsed])
                last = current
                last_time = now
        out.append({"name": name, "unit": unit, "points": points})
    return out


def merge_raw_profiles(
    profiles: List[Optional[Dict[str, Any]]],
) -> Optional[Dict[str, Any]]:
    """Fold per-domain engine profiles (sums and maxima).

    A sharded run executes one observer tick *per domain* per sampler
    interval and each domain heap is shallower than the serial heap, so
    a multi-domain profile describes the sharded execution itself, not
    the serial run.  Rows are busiest first, then by name.
    """
    live = [p for p in profiles if p is not None]
    if not live:
        return None
    counts: Dict[str, int] = {}
    events = 0
    depth = 0
    for p in live:
        events += p["events"]
        if p["max_heap_depth"] > depth:
            depth = p["max_heap_depth"]
        for cb_name, count in p["counts"].items():
            counts[cb_name] = counts.get(cb_name, 0) + count
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "events": events,
        "max_heap_depth": depth,
        "callbacks": [[cb_name, count] for cb_name, count in rows],
    }


def build_export(result, reports) -> TelemetryExport:
    """Assemble the export from a merged result and its recordings.

    ``result`` is the run's :class:`ScenarioResult` — its hub the
    domain-order merge of the per-scope hubs; ``reports`` holds one
    recording per scope (``series``, ``profile``).  The end-of-run
    counters are the hub's (:meth:`StatsHub.counter_rows`, never named
    here) plus the run facts no hub holds.
    """
    config = result.config
    cfg: TelemetryConfig = config.telemetry
    hub = result.stats
    scenario = result.scenario
    values: Dict[str, int] = {"flows.total": result.total_flows}
    if scenario.rpc_driver is not None:
        values["rpc.requests_issued"] = scenario.rpc_driver.requests_issued
    if scenario.hybrid is not None:
        values.update(scenario.hybrid.telemetry_counters())
    counters = [(name, "", value) for name, value in values.items()]
    counters.extend(hub.counter_rows())
    histograms = [
        h
        for h in (hub.fct_histogram, hub.queuing_histogram, hub.rpc_histogram)
        if h is not None
    ]
    histograms.sort(key=lambda h: h.name)
    return TelemetryExport(
        meta={
            "sim_time_ns": result.sim_time,
            "events": result.events,
            "interval_ns": cfg.interval,
            "seed": config.seed,
            "topology": config.topology,
            "cc": config.cc,
            "flow_control": config.flow_control,
            "workload": config.workload,
        },
        counters=sorted(counters),  # names are unique: sorted by name
        series=merge_raw_series([report.series for report in reports]),
        histograms=[
            {
                "name": h.name,
                "unit": h.unit,
                "bins": [[edge, count] for edge, count in h.bins()],
                "total": h.total,
                "sum": h.sum,
                "min": h.min,
                "max": h.max,
            }
            for h in histograms
        ],
        profile=merge_raw_profiles([report.profile for report in reports]),
    )
