"""Determinism harness: event-stream digests and same-seed comparison.

``EventStreamDigest`` observes the engine's executed events (the same
interface as :class:`repro.telemetry.profile.EngineProfiler`) and
folds every executed event — its integer-ns timestamp, callback
qualname, and heap depth — into a SHA-256.  Two runs with the same
``(config, seed)`` must produce byte-identical digests; any hidden
source of nondeterminism (hash-ordered iteration, wall-clock leakage,
ad-hoc RNGs) shows up as a digest mismatch long before it shows up as
a wrong figure.

The module-level harness functions run a scenario twice per scheme and
also compare serial vs pooled sweep summaries
(:meth:`ResultSummary.canonical_bytes`), covering the result cache's
assumption that worker processes reproduce in-process runs exactly.

Experiment modules are imported lazily inside the functions so that
``repro.simcheck`` stays importable from :mod:`repro.experiments`
without a cycle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.choices import FIDELITIES, PATTERNS

#: scheme label -> the ScenarioConfig fields that select it: every
#: scheme with its own pause or trim machinery, under DCQCN (which runs
#: with no switch assistance; pfc_tag arms the per-dst pause pairing at
#: switches, floodgate_ideal the ideal design's per-packet credits and
#: the pairing of Floodgate's dstPause at hosts); then each other CC
#: law, and HPCC's INT under Floodgate's ``adjusted_qlen`` (§8); then
#: each approximate tier (a row with an engine: the fluid
#: rate-conservation sweep), and each partitioning tier under Floodgate
#: (the hybrid boundary ledger with credits crossing it)
SCHEMES: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("dcqcn", {"flow_control": "none"}),
    ("floodgate", {"flow_control": "floodgate"}),
    ("bfc", {"flow_control": "bfc"}),
    ("ndp", {"flow_control": "ndp"}),
    ("pfc_tag", {"flow_control": "pfc-tag"}),
    ("floodgate_ideal", {"flow_control": "floodgate-ideal", "per_dst_pause": True}),
    ("timely", {"cc": "timely"}),
    ("hpcc", {"cc": "hpcc"}),
    ("static", {"cc": "static"}),
    ("hpcc_floodgate", {"cc": "hpcc", "flow_control": "floodgate"}),
    *((tier, {"fidelity": tier}) for tier, row in FIDELITIES.items() if row.engine),
    *((f"{tier}_floodgate", {"fidelity": tier, "flow_control": "floodgate"})
      for tier, row in FIDELITIES.items() if row.partitions),
)

#: schemes the sharded-equivalence check covers: the sharded engine is
#: a drop-in execution strategy, so it is proven against the schemes
#: with the richest switch-side state (pfc-tag replaces ndp here — its
#: per-port pause machinery exercises the boundary-credit path the
#: conservative windows must not reorder)
SHARDED_SCHEMES: Tuple[Tuple[str, str], ...] = (
    ("dcqcn", "none"),
    ("floodgate", "floodgate"),
    ("bfc", "bfc"),
    ("pfc_tag", "pfc-tag"),
)


class EventStreamDigest:
    """Engine observer hashing the executed event stream.

    Satisfies the engine's observer contract (``note``; it keeps no
    ``wall_seconds``, so the loop reads no clock for it): only
    simulated time, callback identity, and heap depth — all
    deterministic quantities — enter the hash.
    """

    __slots__ = ("_sim", "_sha", "_depth", "events")

    def __init__(self, sim, include_depth: bool = True) -> None:
        self._sim = sim
        self._sha = hashlib.sha256()
        #: sharded equivalence checks hash with include_depth=False:
        #: the event *order* is identical between serial and sharded
        #: execution, but pending entries are spread across per-domain
        #: heaps (and boundary messages are inserted at different
        #: instants per executor), so instantaneous depth is not a
        #: cross-executor invariant the way timestamp+callback are
        self._depth = include_depth
        self.events = 0

    def note(self, fn, dt: float, heap_depth: int) -> None:
        # observer ticks (telemetry samplers, sanitizer sweeps, stall
        # watchdogs) read state without mutating it; a sharded run
        # observes per domain where a serial run observes once, so they
        # are excluded from the stream identity entirely
        if getattr(getattr(fn, "__self__", None), "observer", False):
            return
        self.events += 1
        name = getattr(fn, "__qualname__", repr(fn))
        self._sha.update(
            b"%d|%d|" % (self._sim.now, heap_depth if self._depth else 0)
        )
        self._sha.update(name.encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


@dataclass(frozen=True)
class RunDigest:
    """One run's identity: event stream + summarized results."""

    event_digest: str
    summary_digest: str
    events: int
    sim_time: int
    violations: Tuple[str, ...]


def run_digest(config) -> RunDigest:
    """Build and run ``config`` once, digesting its event stream."""
    from repro.experiments.parallel import summarize
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import Scenario

    sc = Scenario(config)
    digest = EventStreamDigest(sc.sim)
    sc.sim.add_observer(digest)
    result = run_scenario(config, scenario=sc)
    summary = summarize(result)
    return RunDigest(
        event_digest=digest.hexdigest(),
        summary_digest=hashlib.sha256(summary.canonical_bytes()).hexdigest(),
        events=digest.events,
        sim_time=result.sim_time,
        violations=tuple(result.sanitizer_violations),
    )


def check_repeatable(config) -> Dict[str, object]:
    """Run ``config`` twice; digests must be byte-identical."""
    digests = [run_digest(config) for _ in range(2)]
    event_ok = len({d.event_digest for d in digests}) == 1
    summary_ok = len({d.summary_digest for d in digests}) == 1
    return {
        "ok": event_ok and summary_ok,
        "event_digests": [d.event_digest for d in digests],
        "summary_digests": [d.summary_digest for d in digests],
        "events": digests[0].events,
        "violations": sorted({v for d in digests for v in d.violations}),
    }


def check_pool_equivalence(configs: Dict[str, object]) -> Dict[str, object]:
    """Serial vs pooled sweep summaries must serialize identically."""
    from repro.experiments.parallel import SweepTask, run_sweep

    tasks = [SweepTask(key=key, config=cfg) for key, cfg in sorted(configs.items())]
    serial = run_sweep(tasks, cache=False, serial=True)
    pooled = run_sweep(tasks, cache=False, serial=False)
    mismatched = [
        key
        for key in sorted(configs)
        if serial[key].canonical_bytes() != pooled[key].canonical_bytes()
    ]
    return {"ok": not mismatched, "mismatched": mismatched}


def check_sharded_equivalence(
    config, shards: int, isolate: bool = False
) -> Dict[str, object]:
    """Sharded execution must replay the serial run byte-for-byte.

    Runs ``config`` serially (depth-free digest — pending work is
    spread across per-domain heaps, so instantaneous heap depth is not
    a cross-executor invariant), then through all three sharded
    executors, and asserts the full equivalence chain:

    * ``lockstep`` merges the per-domain heaps in global key order with
      a shared sequence counter, so its *global* digest must equal the
      serial digest outright — event-for-event, timestamp-for-
      timestamp;
    * ``barrier`` (conservative windows) and ``process`` (one forked
      worker per domain) must produce the same *per-domain* digests as
      lockstep — per-domain order is independent of how domains
      interleave;
    * every executor's :class:`ResultSummary` must serialize to the
      same bytes as the serial one (``shards``/``shard_mode`` are not
      in the bytes).  Normalized before comparison: total event
      counts and the telemetry engine profile (observer ticks run once
      per domain and heaps are per-domain, so those are executor
      properties, not simulation results — the digests already pin the
      simulation event set).  Fault counters, telemetry series,
      histograms, and end-of-run counters all stay in the comparison.

    ``isolate`` additionally arms the isolation sanitizer on every
    sharded executor and requires zero cross-domain mutations.

    Closed-loop rpc configs skip process mode (the driver needs one
    address space; ``shard_mode="auto"`` resolves them to barrier).
    """
    import time as _time
    from dataclasses import replace as dc_replace

    from repro.experiments.parallel import summarize
    from repro.experiments.runner import merge_reports, run_scenario
    from repro.experiments.scenario import Scenario
    from repro.sim.sharded import run_domains

    def norm_bytes(result) -> bytes:
        summary = summarize(result)
        telemetry = summary.telemetry
        if telemetry is not None:
            meta = dict(telemetry.meta)
            meta["events"] = 0
            telemetry = dc_replace(telemetry, meta=meta, profile=None)
        return dc_replace(summary, events=0, telemetry=telemetry).canonical_bytes()

    sc = Scenario(config)
    serial_digest = EventStreamDigest(sc.sim, include_depth=False)
    sc.sim.add_observer(serial_digest)
    serial_bytes = norm_bytes(run_scenario(config, scenario=sc))

    modes = ["lockstep", "barrier"]
    if not PATTERNS[config.pattern].closed_loop:
        modes.append("process")
    report: Dict[str, object] = {
        "shards": shards,
        "serial_digest": serial_digest.hexdigest(),
        "modes": {},
        "ok": True,
    }
    domain_reference: Optional[List[str]] = None
    for mode in modes:
        sc = Scenario(dc_replace(config, shards=shards, shard_mode=mode))
        wall_start = _time.monotonic()  # simcheck: ignore[SIM002] -- wall time for reporting only
        run = run_domains(sc, collect_digests=True, isolate=isolate)
        result = merge_reports(
            sc, run.now, run.reports, run.violations, wall_start
        )
        summary_ok = norm_bytes(result) == serial_bytes
        if mode == "lockstep":
            domain_reference = run.domain_digests
            stream_ok = run.global_digest == serial_digest.hexdigest()
        else:
            stream_ok = run.domain_digests == domain_reference
        iso_violations = run.isolation_violations or []
        mode_ok = summary_ok and stream_ok and not iso_violations
        report["modes"][mode] = {
            "events_identical": stream_ok,
            "summary_identical": summary_ok,
            "domain_digests": run.domain_digests,
            "isolation_violations": iso_violations,
            "ok": mode_ok,
        }
        report["ok"] = report["ok"] and mode_ok
    return report


def sharded_battery_fault_plan():
    """The fault plan the sharded battery runs under.

    A lossy window on the host-ToR links: hosts always share their
    ToR's domain, so every matched link is intra-domain under any shard
    count — the only fault placement the sharded engine accepts — and
    both data and control losses exercise retransmission and the
    injected-drop counters whose serial/sharded equality the battery
    asserts.
    """
    from repro.faults.plan import RandomLoss, plan_of
    from repro.units import us

    return plan_of(
        RandomLoss(
            start=us(20), link="host-switch", duration=us(100),
            data_rate=0.02, ctrl_rate=0.01,
        )
    )


def run_sharded_suite(
    seed: int = 1,
    schemes: Optional[List[str]] = None,
    shards: Tuple[int, ...] = (2, 4),
    scenarios: Tuple[str, ...] = ("quick", "incast256"),
    isolate: bool = False,
) -> Dict[str, object]:
    """The battery behind ``repro.cli check --sharded``.

    For every (scenario, scheme, shard count): serial vs lockstep vs
    barrier vs process, asserting byte-identical event streams and
    result summaries (:func:`check_sharded_equivalence`).  Every case
    runs with a fault plan active *and* telemetry export enabled, so
    the comparison also covers domain-local fault
    application (identical injected-drop counters) and the per-domain
    telemetry merge (identical series, histograms, and counters).
    ``isolate`` arms the isolation sanitizer on the sharded runs.
    Scenarios come from the declarative registry; multi-config entries
    use their first config (the sweep variants only scale the same
    machinery).
    """
    from dataclasses import replace as dc_replace

    from repro.experiments import registry
    from repro.telemetry.registry import TelemetryConfig

    wanted = dict(SHARDED_SCHEMES)
    if schemes:
        unknown = [s for s in schemes if s not in wanted]
        if unknown:
            raise ValueError(
                f"unknown scheme(s) {unknown}; choose from {sorted(wanted)}"
            )
        selected = {name: wanted[name] for name in schemes}
    else:
        selected = wanted
    overrides = {
        "fault_plan": sharded_battery_fault_plan(),
        # the engine profile is the one surface that is deliberately
        # not serial-identical (per-domain observer ticks and heaps);
        # everything else in the export must match byte-for-byte
        "telemetry": TelemetryConfig(engine_profile=False),
    }
    report: Dict[str, object] = {"cases": {}, "ok": True}
    for scenario_name in scenarios:
        base = registry.get(scenario_name).configs[0]
        for scheme, fc in selected.items():
            cfg = dc_replace(base, flow_control=fc, seed=seed, **overrides)
            for n in shards:
                rep = check_sharded_equivalence(cfg, n, isolate=isolate)
                key = f"{scenario_name}/{scheme}/x{n}"
                report["cases"][key] = rep
                report["ok"] = report["ok"] and bool(rep["ok"])
    return report


def _scheme_config(scheme: Dict[str, object], seed: int, sanitize):
    """A small, fast scenario exercising the full stack of one scheme
    (``scheme``: its :data:`SCHEMES` fields)."""
    from repro.experiments.scenario import ScenarioConfig
    from repro.units import ms

    return ScenarioConfig(
        n_tors=3,
        hosts_per_tor=4,
        duration=ms(1),
        seed=seed,
        sanitize=sanitize,
        **scheme,
    )


def run_suite(
    seed: int = 1, schemes: Optional[List[str]] = None
) -> Dict[str, object]:
    """The full runtime battery behind ``repro.cli check --sanitize``.

    Per scheme: a sanitized double run (digests must match, zero
    invariant violations); then one serial-vs-pooled sweep comparison
    across all schemes (unsanitized configs so worker pickling stays
    on the default path).
    """
    from repro.simcheck.sanitizer import SanitizerConfig

    wanted = dict(SCHEMES)
    if schemes:
        unknown = [s for s in schemes if s not in wanted]
        if unknown:
            raise ValueError(
                f"unknown scheme(s) {unknown}; choose from {sorted(wanted)}"
            )
        selected = {name: wanted[name] for name in schemes}
    else:
        selected = wanted
    report: Dict[str, object] = {"schemes": {}, "ok": True}
    for name, scheme in selected.items():
        rep = check_repeatable(_scheme_config(scheme, seed, SanitizerConfig()))
        scheme_ok = bool(rep["ok"]) and not rep["violations"]
        report["schemes"][name] = {
            "digest": rep["event_digests"][0],
            "repeat_identical": rep["ok"],
            "events": rep["events"],
            "violations": rep["violations"],
            "ok": scheme_ok,
        }
        report["ok"] = report["ok"] and scheme_ok
    pool = check_pool_equivalence(
        {name: _scheme_config(s, seed, None) for name, s in selected.items()}
    )
    report["pool_identical"] = pool["ok"]
    report["pool_mismatched"] = pool["mismatched"]
    report["ok"] = report["ok"] and bool(pool["ok"])
    return report
