"""Deadlock/livelock detection for failure-aware experiments.

A :class:`StallWatchdog` samples delivery progress on a fixed period.
If an entire window passes with flows outstanding but not a single
newly delivered byte or completed flow, the run is declared stalled
and the episode is reported through :class:`~repro.stats.collector.
StatsHub` (one record per episode, re-armed when progress resumes).

This catches both true deadlock (the event queue spins on timers while
no data moves — e.g. every credit was lost and windows sit at zero)
and livelock (retransmissions burn events without advancing any
receiver).  The complementary failure shape — the event queue drains
with flows unfinished — is caught by the runner and reported through
the same channel via :meth:`StallWatchdog.note_drained`.

The watchdog only exists when a fault plan asks for it
(``stall_window > 0``); fault-free runs schedule no watchdog events
and stay bit-identical to builds without this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Topology
    from repro.stats.collector import StatsHub


class StallWatchdog:
    """Periodic no-progress detector, reporting through the stats hub."""

    def __init__(
        self,
        sim: Simulator,
        topology: "Topology",
        stats: "StatsHub",
        window: int,
    ) -> None:
        if window <= 0:
            raise ValueError(f"stall window must be > 0 ns, got {window}")
        self.sim = sim
        self.topology = topology
        self.stats = stats
        self.window = window
        self._task = PeriodicTask(sim, window, self._check, observer=True)
        self._last_progress: Optional[Tuple[int, int]] = None
        #: True while inside a stall episode (suppresses re-reporting)
        self.stalled = False
        self.checks = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    # -- detection ---------------------------------------------------------------

    def _progress_marker(self) -> Tuple[int, int]:
        """(completed flows, bytes delivered in order) — any growth is
        progress.  Bytes a receiver discards out of order (go-back-N)
        are not: a retransmission livelock must read as a stall."""
        topo = self.topology
        delivered = sum(f.delivered_bytes for f in topo.flow_table.values())
        return (topo.completed_flows, delivered)

    def _flows_remaining(self) -> bool:
        topo = self.topology
        total = len(topo.flow_table)
        return total > 0 and topo.completed_flows < total

    def _check(self) -> None:
        self.checks += 1
        marker = self._progress_marker()
        if not self._flows_remaining():
            # done (or no flows yet): nothing to watch, all quiet
            self._last_progress = marker
            self.stalled = False
            self._task.stop()
            return
        if marker == self._last_progress:
            if not self.stalled:
                self.stalled = True
                self.stats.record_stall(self.sim.now, marker[0])
        else:
            self.stalled = False
        self._last_progress = marker

    def note_drained(self) -> None:
        """The event queue drained with flows unfinished: that's a stall.

        Called by the runner, which is the only place that can observe
        a drained queue (the watchdog's own pending tick keeps the
        queue technically non-empty).
        """
        if self._flows_remaining() and not self.stalled:
            self.stalled = True
            self.stats.record_stall(self.sim.now, self.topology.completed_flows)
