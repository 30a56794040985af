"""Sanitizer-off overhead benchmark.

The simcheck runtime half follows the faults/telemetry contract: an
unsanitized run pays only the ``sanitizer is None`` check in the one
pause handler (``Node.receive_pause``) plus two unconditional integer
counters on the data path.  This benchmark times the real
``Host.receive`` dispatch of PAUSE / RESUME frames against a twin whose
pause handler is recompiled from the same source with the sanitizer
branch deleted (``conftest.without_fragments``), on the same frames,
and asserts the hook costs < 2 %.

One ``is None`` per frame is a few ns of a 250-450 ns dispatch
(``Host.receive``'s ladder, then ``receive_pause``), so the
measurement has to resolve about 2 %: each side is the fastest of many
short timings spread over several independently built hosts, which
takes the memory-layout luck of any one instance out of the minimum
(one host per side: an identical twin against itself read -2.0 % ..
+2.2 %; six per side: -0.0 % .. +1.3 %, and the four per-protocol
hooks this one replaced 1.3 % .. 2.6 %).
"""

from __future__ import annotations

import itertools
import time

import pytest

from benchmarks.conftest import min_of_interleaved, show, without_fragments

from repro.cc.base import CcAlgorithm
from repro.net.host import Host
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Simulator
from repro.units import gbps, kb, us

#: PAUSE/RESUME frames per timed repeat; large enough to swamp timer
#: resolution on the sub-microsecond dispatch being measured
N_FRAMES = 50_000
REPEATS = 36
#: independently built hosts per side, timed in turn
INSTANCES = 6
#: the acceptance bar: the is-None checks must stay under 2 % overhead,
#: padded only by measurement noise (min-of-repeats keeps that small)
MAX_OVERHEAD = 0.02
#: timing jitter allowance on top of the bar; a genuine added branch
#: or attribute lookup costs far more than this
NOISE_MARGIN = 0.02


class _StubPort:
    """Port stand-in: just the pause state ``receive_pause`` toggles."""

    __slots__ = ("paused",)

    def __init__(self) -> None:
        self.paused = False

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False


class _LegacyHost(Host):
    """Host whose pause handler has no sanitizer slot to check.

    A subclass (not a wrapper function) so both variants are bound
    methods with identical call overhead — the measurement isolates the
    one ``sanitizer is None`` branch on the pause path.
    """

    receive_pause = without_fragments(
        Node.receive_pause,
        note_pause=(
            "    if self.sanitizer is not None:\n"
            "        self.sanitizer.note_pause(self, in_port, key, pause, was_paused)\n"
        ),
    )


def _build(cls):
    sim = Simulator()
    host = cls(sim, 0, "h0", CcAlgorithm(gbps(10), kb(30), us(10)), {}, None)
    host.ports.append(_StubPort())
    assert host.sanitizer is None  # the path being priced
    pause = Packet.control(PacketKind.PAUSE, 1, 0)
    resume = Packet.control(PacketKind.RESUME, 1, 0)
    return host.receive, pause, resume


def _time_one(receive, pause, resume) -> float:
    start = time.perf_counter()
    for _ in range(N_FRAMES // 2):
        receive(pause, 0)
        receive(resume, 0)
    return time.perf_counter() - start


def _timer(cls):
    turn = itertools.cycle([_build(cls) for _ in range(INSTANCES)])
    return lambda: _time_one(*next(turn))


def test_sanitizer_hook_overhead_under_2_percent(once):
    hooked_s, legacy_s = once(
        min_of_interleaved, _timer(Host), _timer(_LegacyHost), REPEATS
    )
    overhead = hooked_s / legacy_s - 1.0
    show(
        "Sanitizer-hook overhead",
        f"{N_FRAMES:,} control frames: hooked {hooked_s * 1e3:.1f} ms vs "
        f"legacy {legacy_s * 1e3:.1f} ms -> {overhead:+.2%} "
        f"(budget {MAX_OVERHEAD:.0%})",
    )
    assert overhead < MAX_OVERHEAD + NOISE_MARGIN


def test_twin_builder_rejects_a_fragment_that_is_not_in_the_source():
    with pytest.raises(ValueError, match="'gone' occurs 0 times"):
        without_fragments(Host.receive, gone="    self.sanitizer.no_such_hook()\n")


def test_unsanitized_run_schedules_no_sanitizer_events(once):
    """End to end: a sanitize-free scenario builds none of the machinery."""
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import ScenarioConfig

    result = once(
        run_scenario,
        ScenarioConfig(flow_control="floodgate", duration=150_000, seed=9),
    )
    sc = result.scenario
    assert sc.sanitizer is None
    assert result.sanitizer_violations == []
    assert all(h.sanitizer is None for h in sc.topology.hosts)
    assert all(sw.sanitizer is None for sw in sc.topology.switches)
    show(
        "No-sanitize simcheck cost",
        f"{result.events:,} events, no sanitizer task, "
        f"every node.sanitizer is None",
    )
