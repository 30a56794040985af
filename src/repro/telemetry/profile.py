"""Engine profiling: who eats the event budget.

The profile splits into two halves:

* **deterministic** — per-callback-type event counts, max heap depth,
  events executed.  These depend only on the simulated schedule, so
  they export byte-identically from serial, pooled, and cached runs.
  The engine counts them itself (``Simulator.count_callbacks``, turned
  on by the telemetry recorder) with no clock read and no call; the
  recorder names the counted functions with :func:`callback_name` once,
  at collect time.
* **wall-clock** — per-callback-type time shares and events/sec.
  Inherently machine- and run-dependent, never part of the canonical
  export: whoever wants them installs an :class:`EngineProfiler` as an
  engine observer via ``Simulator.add_observer`` (the ``report``
  sub-command; the benchmark worker uses the older one-observer form,
  ``Simulator.set_profiler``).  Its ``wall_seconds`` accumulator
  is what tells the engine's instrumented loop to read the clock around
  every callback.

With neither on, the engine pays two checks per ``run()`` call — zero
per-event cost.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

#: callbacks listed in :meth:`EngineProfiler.report`, busiest first
REPORT_ROWS = 12


def callback_name(fn: Callable[..., Any]) -> str:
    """Stable label for a callback (no memory addresses)."""
    name = getattr(fn, "__qualname__", None)
    return name if name is not None else type(fn).__name__


class EngineProfiler:
    """Accumulates per-callback-type counts and times."""

    __slots__ = (
        "counts",
        "seconds",
        "events",
        "max_heap_depth",
        "wall_seconds",
    )

    def __init__(self) -> None:
        #: callback qualname -> events executed
        self.counts: Dict[str, int] = {}
        #: callback qualname -> cumulative seconds inside the callback
        self.seconds: Dict[str, float] = {}
        self.events = 0
        self.max_heap_depth = 0
        #: total wall time spent inside profiled run() calls
        self.wall_seconds = 0.0

    # -- hot path (only while installed) -----------------------------------

    def note(self, fn: Callable[..., Any], dt: float, heap_depth: int) -> None:
        name = callback_name(fn)
        self.counts[name] = self.counts.get(name, 0) + 1
        self.seconds[name] = self.seconds.get(name, 0.0) + dt
        self.events += 1
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth

    # -- queries ------------------------------------------------------------

    def count_rows(self) -> List[Tuple[str, int]]:
        """Deterministic ``(callback, count)`` rows, busiest first."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def time_shares(self) -> List[Tuple[str, float, float]]:
        """Wall-clock ``(callback, seconds, share)`` rows, hottest first."""
        total = sum(self.seconds.values())
        rows = [
            (name, secs, secs / total if total else 0.0)
            for name, secs in self.seconds.items()
        ]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def report(self) -> str:
        """Human-readable profile table (wall-clock half included), its
        ``REPORT_ROWS`` busiest callbacks."""
        lines = [
            f"events executed   {self.events:,}",
            f"max heap depth    {self.max_heap_depth:,}",
            f"events/sec        {self.events_per_sec:,.0f}",
            "",
            f"{'callback':<44s} {'events':>10s} {'seconds':>9s} {'share':>7s}",
        ]
        shares = {name: (secs, share) for name, secs, share in self.time_shares()}
        for name, count in self.count_rows()[:REPORT_ROWS]:
            secs, share = shares.get(name, (0.0, 0.0))
            lines.append(f"{name:<44s} {count:>10,d} {secs:>9.3f} {share:>6.1%}")
        return "\n".join(lines)
