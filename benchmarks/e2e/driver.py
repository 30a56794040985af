"""The driver: schedule fresh worker processes, fold their reports.

The driver never imports the simulator.  One workload run is ``ROUNDS``
rounds of workers; each worker is a fresh interpreter pinned to its own
CPU that sets up (import, configs, sanitized warm-up) and then times
passes for its share of ``--seconds``.  Two things follow from how this
class of host behaves (each vCPU independently alternates between a
fast and a ~1.4x slower state for seconds at a time):

* timings are **best of n per instance**, over every pass of every
  worker — the work is deterministic, so the fastest sample is the
  least disturbed one, while a median lands in whichever state held
  the CPU longer.  The median and IQR are still reported per layer;
* workers run on two CPUs at once, because the two CPUs' slow periods
  are independent and a quiet slice on either is enough.

``setup_s`` is the best of the workers' set-ups for the same reason (the
median is kept per layer as ``experiments.import_s`` + ``warmup_s``).
"""

from __future__ import annotations

import json
import operator
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

from benchmarks.e2e.calibrate import NOMINAL_S
from benchmarks.e2e.workloads import COMPLETION_FLOOR, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = ROOT / "BENCHMARK.json"

#: rounds of workers in an untraced run: each round contributes fresh
#: set-up samples, and spreads the timed passes over more wall time
ROUNDS = 2
#: a worker that has not reported by then is killed and counted failed
#: (two rounds of workers must end inside the contract's 180 s)
WORKER_TIMEOUT_S = 80.0


def declaration() -> Dict[str, Any]:
    return json.loads(DECLARATION.read_text())


# -- scheduling ---------------------------------------------------------------


def plan(workload: Workload, trace: bool) -> List[List[List[str]]]:
    """Rounds of per-worker task lists."""
    slots = min(len(os.sched_getaffinity(0)), 2)
    if trace:
        traced = ["time", "trace", "probes"]
        scored = ["time"]
        if workload.reference == "packet":
            scored.append("reference")
        elif workload.reference == "serial":
            # the forked shard executor runs here only: its numbers are
            # per-layer, and a bounded run should not depend on three
            # processes trading pipe messages on one CPU
            scored.append("reference+process")
        return [[traced, scored]] if slots == 2 else [[traced], [scored]]
    rounds = [[["time"] for _ in range(slots)] for _ in range(ROUNDS)]
    if workload.reference == "serial":
        rounds[0][0] = ["reference", "time"]
    return rounds


def _spawn(
    workload: Workload, seed: int, seconds: float, scale: float,
    tasks: Sequence[str], cpu: int,
) -> subprocess.Popen:
    cmd = [
        sys.executable, "-m", "benchmarks.e2e", "worker",
        "--workload", workload.name,
        "--seed", str(seed),
        "--seconds", f"{seconds:.3f}",
        "--scale", repr(scale),
        "--tasks", ",".join(tasks),
        "--cpu", str(cpu),
        "--spawned-at", repr(time.time()),
    ]
    return subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def _collect(proc: subprocess.Popen) -> Dict[str, Any]:
    """A worker's report; a crash or a hang becomes one failed operation."""
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        return {"crash": f"worker timed out after {WORKER_TIMEOUT_S:.0f}s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"worker exit {proc.returncode}: {stderr.strip()[-800:]}"}
    return json.loads(lines[-1])


def run_workers(
    workload: Workload, seed: int, seconds: float, scale: float, trace: bool
) -> List[Dict[str, Any]]:
    rounds = plan(workload, trace)
    # a traced run spends the other half of its time in the traced tasks
    share = seconds / (2 if trace else len(rounds))
    cpus = sorted(os.sched_getaffinity(0))
    reports = []
    for tasklists in rounds:
        procs = [
            _spawn(workload, seed, share, scale, tasks, cpus[slot])
            for slot, tasks in enumerate(tasklists)
        ]
        # collect every worker even if one fails: none may outlive the run
        reports += [_collect(proc) for proc in procs]
    return reports


# -- folding ------------------------------------------------------------------

#: counts that are maxima or percentiles: folded over instances with max
_MAX_COUNTS = ("_us", "max_in_use", "max_buffer_kb", "hot_racks")


def iqr(values: Sequence[float]) -> float:
    """Interquartile range (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _reference_layers(workload: Workload, ref: Dict[str, Any]) -> Dict[str, float]:
    kind = workload.reference
    speedup = ref["wall_s"] / ref["ours_wall_s"] if ref["ours_wall_s"] else 0.0
    out = {f"ref.{kind}_wall_s": ref["wall_s"], "ref.matched_flows": ref["matched_flows"]}
    if kind == "serial":
        out["sharded.speedup_vs_serial"] = speedup
        if "process_wall_s" in ref:  # traced runs
            out.update({
                "sharded.process_wall_s": ref["process_wall_s"],
                "sharded.parent_cpu_s": ref["parent_cpu_s"],
                "sharded.child_cpu_s": ref["child_cpu_s"],
                "sharded.parent_blocked_s": ref["process_wall_s"] - ref["parent_cpu_s"],
            })
    else:
        out["fct_p50_err_pct"] = ref["fct_p50_err_pct"]
        out["fct_p99_err_pct"] = ref["fct_p99_err_pct"]
        out[f"{ref['tier']}.speedup_vs_packet"] = speedup
    return out


def _trace_layers(
    trace: Dict[str, Any], wall: float, declared: Sequence[str]
) -> Dict[str, float]:
    """Self times scaled from the profiled pass back to the untraced one."""
    scale = wall / trace["traced_wall_s"]
    out: Dict[str, float] = {}
    unattributed = trace["unattributed_s"]
    for layer, seconds in trace["self_s"].items():
        name = f"{layer}.self_s"
        if name in declared:
            out[name] = seconds * scale
        else:
            unattributed += seconds  # e.g. units, net.ecn: no metric of their own
    calls = dict(trace["calls"])
    visits = calls.pop("flowsim.maxmin_flow_visits")
    maxmin_calls = calls["flowsim.maxmin_calls"]
    out.update(calls)
    out.update({
        "flowsim.maxmin_s": trace["maxmin_s"] * scale,
        "flowsim.maxmin_flows_per_call": visits / maxmin_calls if maxmin_calls else 0.0,
        "sim.max_heap_depth": trace["max_heap_depth"],
        "trace.unattributed_s": unattributed * scale,
        "trace.overhead_x": 1.0 / scale,
        "trace.missing": len(trace["missing"]),
    })
    return out


def fold(
    workload: Workload, reports: List[Dict[str, Any]], declared: Sequence[str]
) -> Dict[str, Any]:
    """Worker reports -> metrics, counts and checks of one workload run."""
    failures: List[str] = []
    attempted = 0
    for report in reports:
        if "crash" in report:
            attempted += 1
            failures.append(report["crash"])
        else:
            attempted += report["attempted"]
            failures += report["failures"]
    live = [r for r in reports if "crash" not in r]
    by_index: Dict[int, List[Dict[str, Any]]] = {}
    for report in live:
        for record in report.get("records", []):
            by_index.setdefault(record["index"], []).append(record)
    if not by_index:
        raise RuntimeError("no timed pass completed: " + "; ".join(failures[:3]))

    # the same inputs must give the same simulated outputs in every pass
    # of every worker
    for index, records in sorted(by_index.items()):
        first = records[0]
        if any(
            r["digest"] != first["digest"] or r["counts"] != first["counts"]
            for r in records[1:]
        ):
            failures.append(f"pass[{index}]: outputs differ between passes")

    samples = [records for _, records in sorted(by_index.items())]
    best = [min(records, key=lambda r: r["wall_s"]) for records in samples]
    n = min(len(records) for records in samples)

    def total(key: str) -> float:
        return sum(record[key] for record in best)

    counts: Dict[str, float] = {}
    for record in best:
        for name, value in record["counts"].items():
            combine = max if name.endswith(_MAX_COUNTS) else operator.add
            counts[name] = combine(counts.get(name, 0), value)

    # over the whole pass, as ISSUE 11 defines it: a single instance is
    # too few flows (3 seeds in 100 leave one of them with 5 % of its
    # flows, the largest, still in flight at the hard stop)
    done, owed = counts["stats.completed_flows"], counts["workloads.flows"]
    if done < COMPLETION_FLOOR * owed:
        failures.append(f"pass: completion {done}/{owed} < {COMPLETION_FLOOR}")

    wall = total("wall_s")
    setups = [r["setup"] for r in live]

    def setup_median(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    # >1: this host, at its best during the run, beat the reference host
    host_speed = NOMINAL_S / min(r["calibration_s"] for r in live if "records" in r)

    # a pass's wall moves ~35 % with the seed's traffic draw, so the
    # bounded timing metric is throughput over what the pass simulated;
    # host seconds are reference-host seconds (see calibrate.py)
    end_to_end = {
        "setup_s": min(s["setup_s"] for s in setups) * host_speed,
        "sim_mb_per_s": counts["workloads.payload_mb"] / (wall * host_speed),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in live),
    }

    acquired = counts.pop("net.packet.acquired")
    recycled = counts.pop("net.packet.recycled")
    requests = counts["rpc.requests"]
    layer: Dict[str, float] = {
        "experiments.wall_s": wall,
        "experiments.build_s": total("build_s"),
        "experiments.run_s": total("run_s"),
        "experiments.summarize_s": total("summarize_s"),
        "experiments.export_s": total("export_s"),
        "experiments.cpu_s": total("cpu_s"),
        "experiments.wall_median_s": sum(
            statistics.median(r["wall_s"] for r in records) for records in samples
        ),
        "experiments.wall_iqr_s": sum(
            iqr([r["wall_s"] for r in records]) for records in samples
        ),
        "experiments.passes": n,
        "experiments.host_speed_x": host_speed,
        "experiments.import_s": setup_median("import_s"),
        "experiments.warmup_s": setup_median("warmup_s"),
        "experiments.flows_per_s": counts["stats.completed_flows"] / wall,
        "sim.events_per_s": counts["sim.events"] / total("run_s"),
        "net.packet.pool_reuse_ratio": recycled / acquired if acquired else 0.0,
        "rpc.flows_per_request": counts["workloads.flows"] / requests if requests else 0.0,
        **counts,
    }
    for report in live:
        if "reference" in report:
            layer.update(_reference_layers(workload, report["reference"]))
        layer.update(report.get("probes", {}))
        if "trace" in report:
            layer.update(_trace_layers(report["trace"], wall, declared))
            # "off costs nothing": a layer the configs never enable must
            # not show up in the profile at all
            for name in report["bypassed"]:
                if layer.get(f"{name}.self_s", 0.0) > 0.0:
                    failures.append(f"{name} is bypassed yet ran for "
                                    f"{layer[f'{name}.self_s']:.4f}s")
    layer["experiments.fail_share"] = len(failures) / attempted

    return {
        "workload": workload.name,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "samples": n,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "counts": counts,
        "spans": [row for r in live for row in r["spans"]],
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    declared = [spec["name"] for spec in declaration()["per_layer"]]
    reports = run_workers(workload, seed, seconds, scale, trace)
    result = fold(workload, reports, declared)
    result.update(seed=seed, seconds=seconds, scale=scale, traced=trace)
    return result
