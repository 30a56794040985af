"""Telemetry overhead budgets, off and on.

Off: the telemetry layer's contract mirrors the fault subsystem's, zero
cost when off.  The engine pays two ``is None`` checks per ``run()``
call (not per event), and the stats hub pays one ``is None`` check per
FCT/queueing record.  This benchmark times the real event loop against
a twin recompiled from the same source with the instrumented-loop
branch deleted (``conftest.without_fragments``), on identical event
workloads, and asserts the hook costs < 2 %.

On: recording is pulled, not pushed — the engine counts its events in
the loop, a switch keeps its maxima and queueing sums until the run is
collected — so the registry's ``rpc-fanout`` config, recorded, is held
to a 10 % budget (plus a noise margin) over the same config with
``telemetry=None``; it read 22-33 % while every event paid two clock
reads and a ``note()`` call.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace

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
#: the *on* budget: a recorded run against the same run unrecorded.
#: On the 2-vCPU development VM it reads +10…+16 % over six sessions
#: (best of 15 each side, collector off; the parent of PR 23 read
#: +22…+33 %) — what is left is one dict increment per event (~190 ns)
#: and one ``Histogram.observe`` per data packet per hop — so the bar
#: sits at the budget plus the spread seen between sessions
MAX_RECORDING_OVERHEAD = 0.10
RECORDING_NOISE_MARGIN = 0.08
RECORDED_REPEATS = 15


class _LegacySimulator(Simulator):
    """Simulator whose ``run`` has no instrumented twin to switch to.

    A subclass (not a wrapper) so both variants are bound methods with
    identical call overhead — the measurement isolates the two
    ``is None`` checks per ``run()`` call.
    """

    run = without_fragments(
        Simulator.run,
        profiler_branch=(
            "    if self._profiler is not None or self.callback_counts is not None:\n"
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
    assert sc.sim.callback_counts is None and sc.sim.max_heap_depth == 0
    assert sc.stats.fct_histogram is None
    assert sc.stats.queuing_histogram is None
    show(
        "Telemetry-off run cost",
        f"{result.events:,} events, no recorder, no profiler, no event "
        f"counts, no histograms installed",
    )


def _time_run(cfg) -> float:
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import Scenario

    scenario = Scenario(cfg)
    # a full collection lands in one run or the other by luck, and is
    # worth more than the difference being measured
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_scenario(cfg, scenario=scenario)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert result.completed_flows > 0
    return elapsed


def test_recorded_run_within_10_percent_of_unrecorded(once):
    from repro.experiments import registry
    from repro.telemetry.registry import TelemetryConfig

    unrecorded = registry.get("rpc-fanout").configs[0]
    assert unrecorded.telemetry is None
    recorded = replace(unrecorded, telemetry=TelemetryConfig())
    on_s, off_s = once(
        min_of_interleaved,
        lambda: _time_run(recorded),
        lambda: _time_run(unrecorded),
        RECORDED_REPEATS,
    )
    overhead = on_s / off_s - 1.0
    show(
        "Telemetry-on run overhead (registry rpc-fanout)",
        f"recorded {on_s * 1e3:.0f} ms vs unrecorded {off_s * 1e3:.0f} ms "
        f"-> {overhead:+.1%} (budget {MAX_RECORDING_OVERHEAD:.0%})",
    )
    assert overhead < MAX_RECORDING_OVERHEAD + RECORDING_NOISE_MARGIN
