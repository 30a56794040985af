"""One worker process: set up, then run the tasks the driver asked for.

The worker is the only place ``repro`` is imported.  It touches the
simulator through its public surface alone (listed in README.md):
``ScenarioConfig``, ``Scenario(config)``, ``run_scenario(config,
scenario=)``, ``summarize``, ``ResultSummary.canonical_bytes``,
``TelemetryExport.to_jsonl``, ``fct_records``/``summarize_fct``, the
extensions' ``telemetry_counters()``, ``PacketPool`` counters and
``Simulator.set_profiler``.

Tasks (``--tasks a,b,c``, run in order after set-up):

``time``       timed passes until ``--seconds`` have elapsed
``reference``  the workload's twin: serial (checked) or packet (scored);
               ``reference+process`` also runs the forked shard executor
``trace``      one cProfile'd pass and one EngineProfiler pass
``probes``     the micro-probes of ``probes.py``

The result is one JSON document on the last stdout line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e.calibrate import kernel
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.workloads import (
    PACKET_TWINS,
    WORKLOADS,
    Workload,
    instances,
    reference_config,
)

#: warm-up runs each instance for this share of its duration, sanitized
WARMUP_SHARE = 0.2

perf = time.perf_counter


def _import_repro() -> None:
    """Put ``<checkout>/src`` on the path and import the public surface."""
    src = Path(__file__).resolve().parents[2] / "src"
    if not (src / "repro").is_dir():
        raise ImportError(f"no simulator sources under {src}")
    sys.path.insert(0, str(src))
    import repro.experiments  # noqa: F401
    import repro.simcheck.sanitizer  # noqa: F401
    import repro.telemetry.profile  # noqa: F401


def _counts(cfg, result, summary, export: Optional[str]) -> Dict[str, float]:
    """Simulated counts of one executed instance (exact repeats).

    Read off the in-memory scenario, so they are only meaningful for
    runs that execute in this process (everything but the forked
    ``process`` shard executor, whose records are not counted).
    """
    from repro.stats.fct import summarize_fct

    sc = result.scenario
    stats = summary.stats
    fct = summarize_fct(stats.fct_records)
    pool = sc.pool
    acquired = pool.allocated + pool.recycled
    counts: Dict[str, float] = {
        "sim.events": summary.events,
        "workloads.flows": summary.total_flows,
        "workloads.payload_mb": sum(stats.rx_bytes_by_class.values()) / 1e6,
        "stats.completed_flows": summary.completed_flows,
        "stats.fct_p50_us": fct.p50_ns / 1e3,
        "stats.fct_p99_us": fct.p99_ns / 1e3,
        "stats.incast_fct_p99_us": summary.incast_fct.p99_us,
        "net.pfc_pauses": stats.pfc_pause_events,
        "net.pfc_paused_us": sum(stats.pfc_paused_time.values()) / 1e3,
        "net.drops": stats.packets_dropped,
        "net.max_buffer_kb": stats.max_switch_buffer / 1e3,
        "net.packet.acquired": acquired,
        "net.packet.recycled": pool.recycled,
        "cc.retransmits": summary.retransmitted_packets,
        "rpc.requests": summary.completed_requests,
        "rpc.p99_us": summary.rpc_summary.p99_us,
        "floodgate.voq_max_in_use": summary.max_voqs_used,
    }
    for ext in sc.extensions:
        harvest = getattr(ext, "telemetry_counters", None)
        if harvest is None:
            continue
        for name, value in harvest().items():
            if name != "voq_max_in_use":  # a maximum: taken from the summary
                key = f"floodgate.{name}"
                counts[key] = counts.get(key, 0) + value
    if sc.hybrid is not None:
        counts.update(sc.hybrid.telemetry_counters())
    elif sc.fluid is not None:
        counts["flowsim.reallocations"] = sc.fluid.reallocations
    if cfg.fidelity != "packet":
        counts["flowsim.events"] = summary.events
    if summary.telemetry is not None:
        counts["telemetry.series"] = len(summary.telemetry.series)
        counts["telemetry.export_bytes"] = len(export or "")
    return counts


def _output_errors(result, summary) -> List[str]:
    """Why this execution's outputs are wrong (empty: they are not).

    The completion floor is not checked here: one instance is ~150
    flows, and how many of them outlast the hard stop is the luck of the
    draw (3 seeds in 100 put an instance under 0.95).  The driver checks
    it over the whole pass.
    """
    errors = [f"sanitizer: {v}" for v in summary.sanitizer_violations[:3]]
    sc = result.scenario
    if sc.fluid is not None:
        errors += [f"conservation: {e}" for e in sc.fluid.conservation_errors()[:3]]
    if sc.hybrid is not None:
        errors += [f"boundary: {e}" for e in sc.hybrid.boundary_errors(final=True)[:3]]
    return errors


class Runner:
    """Executes instances and keeps what the driver needs from each."""

    def __init__(self, workload: Workload, spans: SpanLog) -> None:
        self.workload = workload
        self.spans = spans
        #: operations attempted / failed, with the first few reasons
        self.attempted = 0
        self.failures: List[str] = []

    def execute(
        self, index: int, cfg, phase: str, engine_profile: bool = False
    ) -> Optional[Dict[str, Any]]:
        """build -> run -> summarize -> export one config; None if it raised.

        ``engine_profile`` puts an ``EngineProfiler`` on the simulator's
        public profiler slot (or reads the one telemetry installed).
        """
        from repro.experiments import Scenario, run_scenario, summarize
        from repro.telemetry.profile import EngineProfiler

        self.attempted += 1
        spans = self.spans
        label = f"{phase}[{index}]"
        try:
            with spans.span(f"{label}.build") as build:
                sc = Scenario(cfg)
                if engine_profile and sc.sim.profiler is None:
                    sc.sim.set_profiler(EngineProfiler())
            with spans.span(f"{label}.run") as run:
                result = run_scenario(cfg, scenario=sc)
            with spans.span(f"{label}.summarize") as summ:
                summary = summarize(result)
                digest = hashlib.sha256(summary.canonical_bytes()).hexdigest()
            with spans.span(f"{label}.export") as exp:
                export = (
                    summary.telemetry.to_jsonl()
                    if summary.telemetry is not None
                    else None
                )
        except Exception:  # a failed operation is a result, not a crash
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        errors = _output_errors(result, summary)
        if errors:
            self.failures.append(f"{label}: {'; '.join(errors)}")
        phases = {
            "build_s": build.seconds,
            "run_s": run.seconds,
            "summarize_s": summ.seconds,
            "export_s": exp.seconds,
        }
        return {
            "index": index,
            "wall_s": sum(phases.values()),
            **phases,
            "digest": digest,
            "summary": summary,
            "hot_hosts": _hot_hosts(sc),
            "max_heap_depth": getattr(sc.sim.profiler, "max_heap_depth", 0),
            "counts": _counts(cfg, result, summary, export),
        }


def _strip(record: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-able part of a record (what the driver aggregates)."""
    return {k: v for k, v in record.items() if k not in ("summary", "hot_hosts")}


def _hot_hosts(sc) -> Optional[set]:
    """Hosts in the packet-level racks of a hybrid run, else None."""
    if sc.hybrid is None:
        return None
    hot = set(sc.hybrid.hot_racks)
    return {host for host, rack in sc.rack_of().items() if rack in hot}


def _warmup(runner: Runner, configs: list) -> None:
    from repro.simcheck.sanitizer import SanitizerConfig

    for i, cfg in enumerate(configs):
        short = replace(
            cfg,
            duration=max(int(cfg.duration * WARMUP_SHARE), 10_000),
            sanitize=SanitizerConfig(),
        )
        runner.execute(i, short, "warmup")


def _timed(runner: Runner, configs: list, seconds: float) -> Dict[str, Any]:
    """Cycle through the instances until the time is up (each at least once).

    The calibration loop is sampled before every instance, so that its
    best-of-n sees the same slices of the host the instances see.
    """
    records: List[Dict[str, Any]] = []
    calibration = float("inf")
    deadline = perf() + seconds
    cycle = 0
    while True:
        for i, cfg in enumerate(configs):
            if cycle and perf() >= deadline:
                return {"records": records, "calibration_s": calibration}
            gc.collect()
            calibration = min(calibration, kernel())
            cpu0 = time.process_time()
            record = runner.execute(i, cfg, "pass")
            if record is not None:
                record["cpu_s"] = time.process_time() - cpu0
                records.append(_strip(record))
        cycle += 1


def _err_pct(ours: float, ref: float) -> float:
    return abs(ours - ref) / ref * 100.0 if ref else 0.0


def _shard_blind(summary) -> bytes:
    """Summary identity with the shard fields blanked, as `check --sharded`
    compares: windows add bookkeeping events, nothing else may differ."""
    return replace(
        summary,
        config=replace(summary.config, shards=1, shard_mode="auto"),
        events=0,
    ).canonical_bytes()


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _check_serial(runner: Runner, configs: list, forked: bool) -> Dict[str, Any]:
    """Sharded summaries must equal the serial twin's.

    The timed instances use the in-process ``barrier`` executor and are
    checked on every run.  ``forked`` (traced runs) also runs the
    ``process`` executor (fork + a pipe round trip per window) once per
    instance, for the same check and for its cost split.
    """
    out = dict.fromkeys(("wall_s", "ours_wall_s", "matched_flows"), 0.0)
    if forked:
        out.update(process_wall_s=0.0, parent_cpu_s=0.0, child_cpu_s=0.0)
    for i, cfg in enumerate(configs):
        sharded = {"barrier": runner.execute(i, cfg, "ours")}
        serial = runner.execute(i, reference_config(runner.workload, cfg), "reference")
        if forked:
            cpu0, child0 = time.process_time(), _child_cpu()
            sharded["process"] = runner.execute(
                i, replace(cfg, shard_mode="process"), "process"
            )
            out["parent_cpu_s"] += time.process_time() - cpu0
            out["child_cpu_s"] += _child_cpu() - child0
        if serial is None or None in sharded.values():
            continue  # already counted as failed operations
        out["wall_s"] += serial["wall_s"]
        out["ours_wall_s"] += sharded["barrier"]["wall_s"]
        out["matched_flows"] += sharded["barrier"]["summary"].completed_flows
        if forked:
            out["process_wall_s"] += sharded["process"]["wall_s"]
        want = _shard_blind(serial["summary"])
        for name, record in sharded.items():
            if _shard_blind(record["summary"]) != want:
                runner.failures.append(f"reference[{i}]: {name} summary != serial")
    return out


def _score_packet(runner: Runner, configs: list) -> Dict[str, Any]:
    """FCT error of the first ``PACKET_TWINS`` instances against packet level."""
    from repro.stats.fct import summarize_fct

    tier = "hybrid" if configs[0].fidelity == "hybrid" else "flowsim"
    out: Dict[str, Any] = {"wall_s": 0.0, "ours_wall_s": 0.0, "tier": tier}
    ours: list = []
    theirs: list = []
    for i, cfg in enumerate(configs[:PACKET_TWINS]):
        mine = runner.execute(i, cfg, "ours")
        ref = runner.execute(i, reference_config(runner.workload, cfg), "reference")
        if mine is None or ref is None:
            continue
        out["wall_s"] += ref["wall_s"]
        out["ours_wall_s"] += mine["wall_s"]
        twins = {r.flow_id: r for r in ref["summary"].stats.fct_records}
        hot = mine["hot_hosts"]
        for rec in mine["summary"].stats.fct_records:
            twin = twins.get(rec.flow_id)
            if twin is None or (hot is not None and not {rec.src, rec.dst} & hot):
                continue
            ours.append(rec)
            theirs.append(twin)
    a, b = summarize_fct(ours), summarize_fct(theirs)
    out["matched_flows"] = len(ours)
    out["fct_p50_err_pct"] = _err_pct(a.p50_ns, b.p50_ns)
    out["fct_p99_err_pct"] = _err_pct(a.p99_ns, b.p99_ns)
    return out


def _rusage_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.e2e worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--tasks", default="time")
    ap.add_argument("--cpu", type=int, default=-1)
    ap.add_argument("--spawned-at", type=float, default=0.0)
    args = ap.parse_args(argv)
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    workload = WORKLOADS[args.workload]
    spans = SpanLog(workload.name)
    runner = Runner(workload, spans)
    out: Dict[str, Any] = {"workload": workload.name, "seed": args.seed}

    with spans.span("setup") as setup:
        with spans.span("setup.import") as imp:
            _import_repro()
        with spans.span("setup.configs"):
            configs = instances(workload, args.seed, args.scale)
        with spans.span("setup.warmup") as warm:
            _warmup(runner, configs)
    boot = max(setup.start_wall - args.spawned_at, 0.0) if args.spawned_at else 0.0
    out["setup"] = {
        "setup_s": boot + setup.seconds,
        "import_s": boot + imp.seconds,
        "warmup_s": warm.seconds,
    }

    for task in args.tasks.split(","):
        with spans.span(task):
            if task == "time":
                out.update(_timed(runner, configs, args.seconds))
            elif task in ("reference", "reference+process"):
                if workload.reference == "serial":
                    out["reference"] = _check_serial(
                        runner, configs, forked=task == "reference+process"
                    )
                else:
                    out["reference"] = _score_packet(runner, configs)
            elif task == "trace":
                from benchmarks.e2e.trace import traced_passes

                out["trace"] = traced_passes(runner, configs)
            elif task == "probes":
                from benchmarks.e2e.probes import run_probes

                # the heap probe runs at the depth the trace task saw
                depth = out.get("trace", {}).get("max_heap_depth") or 1_000
                out["probes"] = run_probes(depth)
            else:
                raise SystemExit(f"unknown task {task!r}")

    # layers no config of this workload turns on (the driver checks
    # that they cost nothing in the profile)
    out["bypassed"] = [
        name
        for name, on in (
            ("floodgate", any(c.flow_control != "none" for c in configs)),
            ("telemetry", any(c.telemetry is not None for c in configs)),
        )
        if not on
    ]
    out["peak_rss_mb"] = _rusage_mb()
    out["attempted"] = runner.attempted
    out["failures"] = runner.failures
    out["spans"] = spans.rows
    print(json.dumps(out))
    return 0
