"""Telemetry-off overhead benchmark.

The telemetry layer's contract mirrors the fault subsystem's: zero
cost when off.  The engine pays exactly one ``profiler is None`` check
per ``run()`` call (not per event), and the stats hub pays one
``is None`` check per FCT/queueing record.  This benchmark times the
real event loop against a twin recompiled from the same source with
the profiler branch deleted (``conftest.without_fragments``), on
identical event workloads, and asserts the hook costs < 2 %.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import min_of_interleaved, show, without_fragments

from repro.sim.engine import Simulator

#: events per timed repeat; large enough to swamp timer resolution
N_EVENTS = 100_000
REPEATS = 15
#: acceptance bar: the telemetry-off engine must stay within 2 % of
#: the pre-telemetry loop
MAX_OVERHEAD = 0.02
#: timing jitter allowance on top of the bar; a genuine per-event
#: branch costs far more than this
NOISE_MARGIN = 0.02


class _LegacySimulator(Simulator):
    """Simulator whose ``run`` has no profiler slot to check.

    A subclass (not a wrapper) so both variants are bound methods with
    identical call overhead — the measurement isolates the one
    ``profiler is None`` check per ``run()`` call.
    """

    run = without_fragments(
        Simulator.run,
        profiler_branch=(
            "    if self._profiler is not None:\n"
            "        self._run_profiled(until)\n"
            "        return\n"
        ),
    )


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
    hooked_s, legacy_s = once(
        min_of_interleaved,
        lambda: _time_one(Simulator),
        lambda: _time_one(_LegacySimulator),
        REPEATS,
    )
    overhead = hooked_s / legacy_s - 1.0
    show(
        "Telemetry-off engine overhead",
        f"{N_EVENTS:,} events: hooked {hooked_s * 1e3:.1f} ms vs "
        f"legacy {legacy_s * 1e3:.1f} ms -> {overhead:+.2%} "
        f"(budget {MAX_OVERHEAD:.0%})",
    )
    assert overhead < MAX_OVERHEAD + NOISE_MARGIN


def test_twin_builder_rejects_a_fragment_that_is_not_in_the_source():
    with pytest.raises(ValueError, match="'gone' occurs 0 times"):
        without_fragments(Simulator.run, gone="    self._no_such_hook()\n")


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
