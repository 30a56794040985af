"""Engine performance benchmarks: a named scenario matrix with history.

The matrix is the ``bench``-tagged slice of the declarative scenario
registry (``repro.experiments.registry``).  The fixed-seed scenarios
cover the regimes the engine must stay fast in:

* ``quick`` — the §6.1 incastmix substrate at bench scale (the
  canonical record tracked PR over PR; this is what CI gates on);
* ``incast256`` — a 256-host leaf-spine incast-degree sweep (fan-in
  64/128/255), the pause/credit-heavy regime where control traffic
  dominates;
* ``fattree-a2a`` — a 128-host fat-tree (k=8) under Poisson
  all-to-all, the multi-hop routing-heavy regime;
* the fluid- and hybrid-tier twins of those, gated on flows/s into
  ``BENCH_flowsim.json``;
* sharded runs of the packet scenarios, gated on events/s like their
  serial twins;
* closed-loop rpc workloads (repro.rpc), gated on requests/s into
  ``BENCH_rpc.json``.

A scenario that is not its own ground truth (an approximate tier, a
sharded run) also times its reference twin —
``scenario.reference_config`` — inside every repeat and records the
twin's wall time and the speedup over it.

Each scenario is timed ``--repeats`` times (default 3) and reported as
the *median* wall time with its stdev, so one GC pause or noisy
neighbour cannot fake a regression or an improvement.  Event counts
are seed-determined and asserted identical across repeats — a repeat
that executes different events is a determinism bug, not noise.

``BENCH_engine.json`` is a trajectory, not a snapshot: every
``run_and_write`` appends a history entry (timestamp, machine,
per-scenario records) and refreshes the ``latest`` block.  The CI
perf-smoke gate (:func:`check_gate`) compares a fresh run against the
best *same-machine* history entry and fails on a >20 % events/second
regression; with no same-machine history it falls back to an absolute
floor that only catches structural collapses.

Entry points:

* ``floodgate-experiment bench [--scenario ...] [--repeats N] [--gate]``;
* ``benchmarks/test_perf_engine.py`` (pytest).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.experiments import registry
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import reference_config

#: env override for where ``BENCH_engine.json`` lands
ENV_BENCH_OUT = "REPRO_BENCH_OUT"

#: default output file (current working directory)
DEFAULT_BENCH_FILE = "BENCH_engine.json"

#: flowsim gate fallback when no same-machine history exists: the
#: fluid tier completes tens of thousands of flows per second; below
#: this something structural broke
FLOWS_PER_SEC_FLOOR = 1_000

#: rpc gate fallback: the bench-scale closed loop completes tens of
#: requests per wall second even on slow hardware; below this
#: something structural broke
REQUESTS_PER_SEC_FLOOR = 10

#: gate fallback when no same-machine history exists: any hardware
#: does far better than this; below it something structural broke
EVENTS_PER_SEC_FLOOR = 40_000

#: gate metric (also the record key) -> (display unit, absolute floor,
#: trajectory).  Records gated on the metric land in
#: ``BENCH_<trajectory>.json``, labelled ``<trajectory>-bench``
_GATE_METRICS = {
    "events_per_sec": ("ev/s", EVENTS_PER_SEC_FLOOR, "engine"),
    "flows_per_sec": ("flows/s", FLOWS_PER_SEC_FLOOR, "flowsim"),
    "requests_per_sec": ("req/s", REQUESTS_PER_SEC_FLOOR, "rpc"),
}

#: the CI gate's default regression budget (fraction of the best
#: same-machine events/second)
DEFAULT_MAX_REGRESSION = 0.20

#: history entries kept per (machine, scenario) — enough trajectory to
#: eyeball trends without the file growing unboundedly
MAX_HISTORY = 50


def scenario_matrix() -> Dict[str, registry.ScenarioEntry]:
    """The full named matrix, in canonical order: the ``bench``-tagged
    entries of the declarative scenario registry, which is the single
    source of truth for what exists and how it is gated.

    Multi-config entries (the incast-degree sweep) are timed as one
    unit: a repeat runs every config once, and events/walls are summed.
    """
    return {entry.name: entry for entry in registry.entries(tag="bench")}


def gate_metric_for(scenario: str) -> str:
    """The throughput metric the registered ``scenario`` is gated on."""
    return registry.get(scenario).gate_metric


def history_path(engine_file: Union[str, Path], metric: str) -> Path:
    """The trajectory file records gated on ``metric`` land in.

    The engine trajectory is ``engine_file`` itself (``--out`` /
    ``$REPRO_BENCH_OUT`` may rename it); the fluid and rpc
    trajectories are always written next to it, so the histories
    travel together.
    """
    trajectory = _GATE_METRICS[metric][2]
    out = Path(engine_file)
    if trajectory == "engine":
        return out
    return out.with_name(f"BENCH_{trajectory}.json")


def machine_fingerprint() -> str:
    """Identifies the hardware a record was measured on.

    Events/second is only comparable within one machine; the gate
    never compares records across fingerprints.
    """
    return f"{platform.node()}/{platform.machine()}"


# -- running ------------------------------------------------------------------


def run_bench_scenario(spec: registry.ScenarioEntry, repeats: int = 3) -> Dict:
    """Time ``spec`` ``repeats`` times; report the median.

    Event counts and flow totals are seed-determined: a repeat that
    disagrees is a determinism regression and raises immediately.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    # a scenario is twinned as a unit: every config has a reference
    # (sharded -> serial, approximate tier -> packet engine) or none has
    references = [reference_config(cfg) for cfg in spec.configs]
    kind = references[0][0] if all(references) else None
    walls: List[float] = []
    reference_walls: List[float] = []
    events = completed = total = sim_time = requests = -1
    for _ in range(repeats):
        # collect before every timed sweep: without this, the first
        # sweep of an iteration pays GC for the previous iteration's
        # garbage, a *positional* bias that systematically flatters
        # whichever twin runs second (it dwarfs the real delta on
        # near-1x comparisons)
        gc.collect()
        wall = 0.0
        ev = done = flows = stime = reqs = 0
        for cfg in spec.configs:
            r = run_scenario(cfg)
            wall += r.wall_seconds
            ev += r.events
            done += r.completed_flows
            flows += r.total_flows
            stime += r.sim_time
            reqs += r.completed_requests
        if events >= 0 and (ev, done, flows, reqs) != (
            events,
            completed,
            total,
            requests,
        ):
            raise RuntimeError(
                f"benchmark {spec.name!r} is nondeterministic across "
                f"repeats: {ev} events vs {events} on the previous run"
            )
        events, completed, total, sim_time, requests = ev, done, flows, stime, reqs
        walls.append(wall)
        if kind is not None:
            # the reference twin, timed under the same repeat so machine
            # noise hits both sides; speedup is median over median
            gc.collect()
            reference_walls.append(
                sum(run_scenario(twin).wall_seconds for _, twin in references)
            )
    median = statistics.median(walls)
    stdev = statistics.stdev(walls) if len(walls) > 1 else 0.0
    record = {
        "scenario": spec.name,
        "description": spec.description,
        "events": events,
        "wall_seconds": round(median, 4),
        "wall_stdev": round(stdev, 4),
        "events_per_sec": round(events / median) if median else 0,
        "flows_per_sec": round(completed / median) if median else 0,
        "requests_per_sec": round(requests / median) if median else 0,
        "sim_time_ns": sim_time,
        "completed_flows": completed,
        "total_flows": total,
        "completed_requests": requests,
        "repeats": repeats,
    }
    shards = max(cfg.shards for cfg in spec.configs)
    if shards > 1:
        # the speedup gate only arms on a machine that can run every
        # domain on its own CPU (see check_gate)
        record["shards"] = shards
        record["cpus"] = os.cpu_count() or 1
    if kind is not None:
        reference_median = statistics.median(reference_walls)
        record[f"{kind}_wall_seconds"] = round(reference_median, 4)
        record[f"speedup_vs_{kind}"] = (
            round(reference_median / median, 3) if median else 0.0
        )
    return record


def run_matrix(
    scenarios: Optional[Iterable[str]] = None, repeats: int = 3
) -> Dict[str, Dict]:
    """Run the named scenarios (default: just ``quick``)."""
    matrix = scenario_matrix()
    names = list(scenarios) if scenarios else ["quick"]
    unknown = [n for n in names if n not in matrix]
    if unknown:
        raise ValueError(
            f"unknown benchmark scenario(s) {unknown}; "
            f"choose from {sorted(matrix)}"
        )
    return {name: run_bench_scenario(matrix[name], repeats) for name in names}


# -- the history file ---------------------------------------------------------


def load_bench_file(path: Union[str, Path]) -> Dict:
    """Read ``BENCH_engine.json``, upgrading the legacy single-record
    format (pre-matrix: one flat ``quick`` record, no machine tag) into
    a one-entry history so committed baselines stay on the trajectory.
    """
    path = Path(path)
    if not path.exists():
        return {"benchmark": "engine-bench", "history": []}
    data = json.loads(path.read_text())
    if "history" in data:
        return data
    # legacy: a single flat record for the quick scenario
    entry = {
        "machine": data.get("machine", "unknown"),
        "timestamp": data.get("timestamp", "unknown"),
        "scenarios": {
            "quick": {
                "scenario": "quick",
                "events": data.get("events", 0),
                "wall_seconds": data.get("wall_seconds", 0.0),
                "events_per_sec": data.get("events_per_sec", 0),
                "repeats": data.get("repeats", 1),
            }
        },
    }
    return {"benchmark": "engine-bench", "history": [entry]}


def append_history(
    records: Dict[str, Dict],
    path: Union[str, Path, None] = None,
    benchmark: str = "engine-bench",
) -> Dict:
    """Append one history entry for ``records`` and rewrite the file.

    Returns the entry written.  ``latest`` mirrors the newest record
    per scenario so dashboards need not scan the history.
    """
    out = Path(path or os.environ.get(ENV_BENCH_OUT) or DEFAULT_BENCH_FILE)
    data = load_bench_file(out)
    entry = {
        "machine": machine_fingerprint(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scenarios": records,
    }
    history = data.get("history", [])
    history.append(entry)
    data["history"] = history[-MAX_HISTORY:]
    latest = data.get("latest", {})
    latest.update(records)
    data["latest"] = latest
    data["benchmark"] = benchmark
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=2) + "\n")
    return entry


def best_history_rate(
    data: Dict,
    scenario: str,
    machine: str,
    metric: str = "events_per_sec",
    events: Optional[int] = None,
) -> Optional[int]:
    """Best recorded ``metric`` for ``scenario`` on ``machine``.

    Entries without a machine tag (legacy records) are skipped — they
    may come from different hardware and would poison the comparison.
    So are entries whose ``events`` count is not ``events`` (the fresh
    record's): event counts are deterministic, so a different count is
    a different event model, and a rate per event of one model says
    nothing about the other (fewer, fatter events would read as a
    slowdown).
    """
    best: Optional[int] = None
    for entry in data.get("history", []):
        if entry.get("machine") != machine:
            continue
        rec = entry.get("scenarios", {}).get(scenario)
        if not rec or rec.get("events") != events:
            continue
        rate = rec.get(metric, 0)
        if best is None or rate > best:
            best = rate
    return best


def check_gate(
    records: Dict[str, Dict],
    data: Dict,
    machine: Optional[str] = None,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> Tuple[bool, List[str]]:
    """The CI perf-smoke gate: no scenario may regress > ``max_regression``.

    Compares each fresh record against the best same-machine history
    entry with the same event count; a machine with no such history
    falls back to the absolute floor (CI runners change hardware, and
    events/second across machines or event models is meaningless).
    Returns ``(ok, messages)``.
    """
    machine = machine or machine_fingerprint()
    ok = True
    messages: List[str] = []
    for name, rec in records.items():
        # each scenario declares its own metric in the registry:
        # fluid-tier records gate on flows/second (a whole incast burst
        # is a handful of rate events, so events/second would only
        # measure the scenario build) and closed-loop rpc records on
        # requests/second (the number the subsystem exists to serve)
        entry = registry.get(name)
        metric = entry.gate_metric
        unit, floor = _GATE_METRICS[metric][:2]
        rate = rec.get(metric, 0)
        best = best_history_rate(data, name, machine, metric, rec.get("events"))
        if best is None or best <= 0:
            bar = floor
            basis = (
                f"absolute floor (no history for machine {machine!r} "
                "under this event model)"
            )
        else:
            bar = round(best * (1.0 - max_regression))
            basis = f"best same-machine run {best:,} {unit} - {max_regression:.0%}"
        if rate < bar:
            ok = False
            messages.append(
                f"GATE FAIL {name}: {rate:,} {unit} < {bar:,} ({basis})"
            )
        else:
            messages.append(
                f"gate ok {name}: {rate:,} {unit} >= {bar:,} ({basis})"
            )
        kind = next(
            (k for k in ("serial", "packet") if f"speedup_vs_{k}" in rec), None
        )
        if entry.min_speedup is None or kind is None:
            continue
        speedup = rec[f"speedup_vs_{kind}"]
        shards = rec.get("shards", 0)
        cpus = rec.get("cpus", 0)
        if cpus < shards:
            # workers time-slicing fewer cores than domains cannot
            # show parallel speedup; record it, don't gate on it
            messages.append(
                f"gate skip {name}: speedup {speedup}x not gated "
                f"({cpus} CPU(s) < {shards} shards)"
            )
        elif speedup < entry.min_speedup:
            ok = False
            messages.append(
                f"GATE FAIL {name}: speedup {speedup}x < "
                f"{entry.min_speedup}x vs {kind}"
            )
        else:
            messages.append(
                f"gate ok {name}: speedup {speedup}x >= "
                f"{entry.min_speedup}x vs {kind}"
            )
    return ok, messages


# -- one-call entry point -----------------------------------------------------


def run_and_write(
    repeats: int = 3,
    path: Union[str, Path, None] = None,
    scenarios: Optional[Iterable[str]] = None,
) -> Dict:
    """Benchmark, append to the trajectories, and return the records.

    Each record lands in the history file of its scenario's gate
    metric (:func:`history_path`: events/s in the engine file —
    ``path`` / ``$REPRO_BENCH_OUT`` / ``BENCH_engine.json`` —, flows/s
    in ``BENCH_flowsim.json`` and requests/s in ``BENCH_rpc.json``
    next to it).  The return value maps scenario name to its fresh
    record, plus ``output_file`` (engine) and, when they ran,
    ``flowsim_output_file`` / ``rpc_output_file``.
    """
    records = run_matrix(scenarios, repeats=repeats)
    out = Path(path or os.environ.get(ENV_BENCH_OUT) or DEFAULT_BENCH_FILE)
    result: Dict = dict(records)
    result["output_file"] = str(out)
    for metric, (_, _, trajectory) in _GATE_METRICS.items():
        batch = {
            name: rec
            for name, rec in records.items()
            if gate_metric_for(name) == metric
        }
        if not batch:
            continue
        target = history_path(out, metric)
        append_history(batch, target, benchmark=f"{trajectory}-bench")
        if target != out:
            result[f"{trajectory}_output_file"] = str(target)
    return result
