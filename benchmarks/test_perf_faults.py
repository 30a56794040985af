"""Fault-hook cost when off: structural, not timed.

The fault subsystem's contract is zero cost when off.  A healthy link
never reaches ``Link.deliver``: the whole hook is one ``link.fault is
None`` term of the fast-path condition in ``EgressPort._try_transmit``.
One term of a ~700 ns function is below what a min-of-n timing against
a hook-free twin resolves: measured the way ``test_perf_simcheck.py``
measures (36 short timings over six instances per side, six runs), live
against twin read -0.3 % .. +1.7 % and the twin against an identical
twin -0.5 % .. +2.1 %, under a 2 % + 2 % bar.  A timing test here could
not fail, so nothing is timed: the tests pin where the hook lives and
that a plan-free run builds none of the machinery behind it.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import show, without_fragments

from repro.net.port import EgressPort


def test_fault_hook_is_one_term_of_the_port_fast_path():
    # builds only while the term occurs exactly once, in this shape; if
    # the hook moves or grows, this says so
    without_fragments(
        EgressPort._try_transmit, fault_term="        and link.fault is None\n"
    )
    with pytest.raises(ValueError, match="'gone' occurs 0 times"):
        without_fragments(
            EgressPort._try_transmit, gone="        and link.no_such_hook\n"
        )


def test_no_plan_run_pays_no_fault_events(once):
    """End to end: a plan-free scenario schedules zero fault machinery."""
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import ScenarioConfig

    result = once(
        run_scenario,
        ScenarioConfig(flow_control="floodgate", duration=150_000, seed=9),
    )
    sc = result.scenario
    assert sc.fault_injector is None
    assert sc.watchdog is None
    assert all(l.fault is None for l in sc.topology.links)
    assert result.stats.fault_drops_total == 0
    show(
        "No-plan fault cost",
        f"{result.events:,} events, no injector, no watchdog, "
        f"every link.fault is None",
    )
