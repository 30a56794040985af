"""Downstream-side credit generation (§4.1).

The ideal (strawman) design returns one credit per forwarded packet,
immediately.  The practical design aggregates: a timer per ingress
port fires every ``T``; for each destination with forwarded-but-
uncredited packets it emits one ``<dst, count>`` credit — unless that
destination's VOQ backlog exceeds the *delayCredit* threshold, in
which case the credits stay owed until the backlog drains (avoiding
"unnecessary buffer buildup" upstream).

Credits echo the highest PSN forwarded for loss recovery (§4.3): a
credit lost on the wire is healed by the upstream's switchSYN probe,
which this side answers with that PSN.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTask

#: send_fn(ingress_port, dst_host, count, last_psn)
SendFn = Callable[[int, int, int, int], None]
#: backlog_fn(dst_host) -> VOQ bytes queued for dst at this switch
BacklogFn = Callable[[int], int]


class CreditScheduler:
    """Tracks owed credits per (ingress port, destination).

    The data path fills the tables: ``FloodgateExtension.on_dequeue``
    books each departed packet into ``owed`` / ``last_fwd_psn`` (or, in
    the ideal design, which has no timers, returns its credit at once)
    and starts the port's timer.  A watched port has neither tables nor
    a timer until the first credit it owes (:meth:`open_port`).

    ``timer`` is the aggregation interval ``T`` in ns; 0 is the ideal
    design (no timers, one credit per packet).  ``threshold`` is the
    delayCredit threshold on a destination's VOQ backlog, bytes.
    """

    def __init__(
        self,
        sim: Simulator,
        timer: int,
        threshold: int,
        send_fn: SendFn,
        backlog_fn: BacklogFn,
    ) -> None:
        self.sim = sim
        self.timer = timer
        self.threshold = threshold
        self.send_fn = send_fn
        self.backlog_fn = backlog_fn
        #: ports whose upstream peer is a Floodgate switch
        self.watched: Set[int] = set()
        #: owed credits: port -> {dst: count}, for opened ports
        self.owed: Dict[int, Dict[int, int]] = {}
        #: highest PSN forwarded: port -> {dst: psn}, for opened ports
        self.last_fwd_psn: Dict[int, Dict[int, int]] = {}
        self._timers: Dict[int, PeriodicTask] = {}
        self.credits_sent = 0
        self.credits_delayed = 0

    def watch_port(self, port: int) -> None:
        """Enable credit generation toward the peer on ``port``.

        Only ports whose upstream peer is a Floodgate switch need
        credits; hosts never maintain windows (§3.2).  Nothing is
        allocated here: the port's tables and timer appear with its
        first owed credit (:meth:`open_port`).
        """
        self.watched.add(port)

    def open_port(self, port: int) -> Dict[int, int]:
        """The first credit a watched port owes: create its tables and,
        in the practical design, its timer; return its ``owed`` table.

        The timer runs lazily: it starts on an owed credit and stops
        once the port has nothing left to return, so idle ports cost
        no events.
        """
        owed = self.owed[port] = {}
        self.last_fwd_psn[port] = {}
        if self.timer:
            self._timers[port] = PeriodicTask(self.sim, self.timer, self._tick, port)
        return owed

    def stop(self) -> None:
        for task in self._timers.values():
            task.stop()

    def telemetry_counters(self) -> Dict[str, int]:
        """End-of-run counter values for :mod:`repro.telemetry`."""
        return {
            "credits_sent": self.credits_sent,
            "credits_delayed": self.credits_delayed,
        }

    # -- switchSYN ----------------------------------------------------------------

    def answer_syn(self, in_port: int, dst: int) -> None:
        """switchSYN reply: echo the last forwarded PSN unconditionally."""
        forwarded = self.last_fwd_psn.get(in_port)
        psn = forwarded.get(dst, -1) if forwarded is not None else -1
        table = self.owed.get(in_port)
        count = table.pop(dst, 0) if table is not None else 0
        self.send_fn(in_port, dst, count, psn)
        self.credits_sent += 1

    # -- timer ------------------------------------------------------------------------

    def _tick(self, port: int) -> None:
        table = self.owed.get(port)
        if table:
            threshold = self.threshold
            flushable: List[int] = []
            for dst in table:
                if self.backlog_fn(dst) <= threshold:
                    flushable.append(dst)
                else:
                    self.credits_delayed += 1
            forwarded = self.last_fwd_psn[port]
            for dst in flushable:
                count = table.pop(dst)
                self.send_fn(port, dst, count, forwarded.get(dst, -1))
                self.credits_sent += 1
        if not table:
            self._timers[port].stop()
