"""Telemetry-off overhead benchmark (tracked via BENCH_telemetry.json).

The telemetry layer's contract mirrors the fault subsystem's: zero
cost when off.  The engine pays exactly one ``profiler is None`` check
per ``run()`` call (not per event), and the stats hub pays one
``is None`` check per FCT/queueing record.  This benchmark times the
real event loop against a twin recompiled from the same source with
the profiler branch deleted, on identical event workloads, and asserts the hook costs
< 2 %.

Both variants are timed as min-of-several interleaved repeats, so a
GC pause or a noisy neighbour hits both sides alike rather than
producing a false regression.
"""

from __future__ import annotations

import inspect
import json
import pathlib
import textwrap
import time

from benchmarks.conftest import show

from repro.sim import engine
from repro.sim.engine import Simulator

BENCH_FILE = pathlib.Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"

#: events per timed repeat; large enough to swamp timer resolution
N_EVENTS = 100_000
REPEATS = 15
#: acceptance bar: the telemetry-off engine must stay within 2 % of
#: the pre-telemetry loop
MAX_OVERHEAD = 0.02
#: timing jitter allowance on top of the bar; a genuine per-event
#: branch costs far more than this
NOISE_MARGIN = 0.02


def _run_without_profiler_branch():
    """``Simulator.run``, recompiled from its live source with the
    profiler check deleted.

    Built from the source rather than kept as a copy: a copy goes stale
    the next time the heap tuple or the loop changes (it did, twice),
    and then this benchmark times two different loops — or crashes.
    """
    source = textwrap.dedent(inspect.getsource(Simulator.run))
    branch = (
        "    if self._profiler is not None:\n"
        "        self._run_profiled(until)\n"
        "        return\n"
    )
    assert source.count(branch) == 1, "Simulator.run's profiler branch moved"
    namespace: dict = {}
    code = compile(source.replace(branch, ""), "<run-without-profiler>", "exec")
    exec(code, vars(engine), namespace)
    return namespace["run"]


class _LegacySimulator(Simulator):
    """Simulator whose ``run`` has no profiler slot to check.

    A subclass (not a wrapper) so both variants are bound methods with
    identical call overhead — the measurement isolates the one
    ``profiler is None`` check per ``run()`` call.
    """

    run = _run_without_profiler_branch()


def _noop() -> None:
    pass


def _time_one(cls) -> float:
    sim = cls()
    sim.schedule_many((t, _noop, ()) for t in range(N_EVENTS))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert sim.events_executed == N_EVENTS
    return elapsed


def test_telemetry_off_engine_overhead_under_2_percent(once):
    def measure():
        # warm both code paths first: the adaptive interpreter settles
        # its inline caches on the first pass, and whichever variant
        # runs cold would otherwise absorb that one-time cost
        _time_one(Simulator)
        _time_one(_LegacySimulator)
        hooked, legacy = [], []
        for i in range(REPEATS):
            # interleaved AND order-alternated: slow drift (thermal,
            # frequency scaling) hits both sides alike instead of
            # systematically penalising whichever runs second
            pair = (
                (hooked, Simulator, legacy, _LegacySimulator)
                if i % 2 == 0
                else (legacy, _LegacySimulator, hooked, Simulator)
            )
            pair[0].append(_time_one(pair[1]))
            pair[2].append(_time_one(pair[3]))
        return min(hooked), min(legacy)

    hooked_s, legacy_s = once(measure)
    overhead = hooked_s / legacy_s - 1.0
    record = {
        "benchmark": "telemetry_off_engine_overhead",
        "events": N_EVENTS,
        "repeats": REPEATS,
        "hooked_seconds": round(hooked_s, 6),
        "legacy_seconds": round(legacy_s, 6),
        "overhead_fraction": round(overhead, 4),
        "budget_fraction": MAX_OVERHEAD,
    }
    BENCH_FILE.write_text(json.dumps(record, indent=2) + "\n")
    show(
        "Telemetry-off engine overhead (BENCH_telemetry.json)",
        f"{N_EVENTS:,} events: hooked {hooked_s * 1e3:.1f} ms vs "
        f"legacy {legacy_s * 1e3:.1f} ms -> {overhead:+.2%} "
        f"(budget {MAX_OVERHEAD:.0%})",
    )
    assert overhead < MAX_OVERHEAD + NOISE_MARGIN


def test_telemetry_off_run_installs_nothing(once):
    """End to end: a telemetry-free scenario wires zero instruments."""
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import ScenarioConfig

    result = once(
        run_scenario,
        ScenarioConfig(flow_control="floodgate", duration=150_000, seed=9),
    )
    sc = result.scenario
    assert sc.telemetry is None
    assert result.telemetry is None
    assert sc.sim.profiler is None
    assert sc.stats.fct_histogram is None
    assert sc.stats.queuing_histogram is None
    show(
        "Telemetry-off run cost",
        f"{result.events:,} events, no recorder, no profiler, "
        f"no histograms installed",
    )
