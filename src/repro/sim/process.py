"""Timer and periodic-task helpers built on the raw event engine.

These wrap the common stateful patterns in network protocols: a
restartable one-shot timer (retransmission timeouts, switchSYN
timeouts) and a periodic task (credit timers, rate-increase timers)
that can be paused and resumed without leaking events.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator


class Timer:
    """A restartable one-shot timer.

    ``start`` (re)arms the timer; ``stop`` disarms it.  The callback
    fires once per arming, at the heap key ``(deadline, 0, seq)`` with
    ``seq`` drawn from the simulator's counter by the ``start`` that set
    the deadline — exactly where a cancel-and-reschedule timer's expiry
    would sit.

    Re-arming is *lazy*: a retransmission timer is pushed back by every
    ACK and almost never expires, so ``start`` on an armed timer only
    records the new deadline and reserves its seq.  One *carrier* entry
    per timer rides the heap; when it surfaces and is not the reserved
    one it re-pushes itself at the reserved key, which is strictly later
    than the key being run (the deadline is no earlier, the seq was
    drawn later).  DESIGN.md "Engine fast path" has the argument.
    """

    __slots__ = ("_sim", "_fn", "_args", "_carrier", "_deadline", "_seq")

    def __init__(self, sim: Simulator, fn: Callable[..., Any], *args: Any) -> None:
        self._sim = sim
        self._fn = fn
        self._args = args
        #: the timer's one live heap entry; None exactly when unarmed.
        #: Its ``time``/``seq`` are the key it sits at, never later than
        #: ``(_deadline, _seq)``, the key the expiry is owed at.
        self._carrier: Optional[Event] = None
        self._deadline = 0
        self._seq = 0

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._carrier is not None

    def start(self, delay: int) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` ns from now."""
        if delay < 0:
            self.stop()  # a rejected re-arm has still dropped the old one
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        self._seq = seq
        self._deadline = deadline = sim.now + delay
        carrier = self._carrier
        if carrier is not None:
            if carrier.time <= deadline:
                return  # the carrier surfaces first and moves itself
            # pulled earlier than the carrier sits: it cannot ride
            carrier.cancelled = True
        self._carrier = carrier = Event(deadline, seq, self._fire, ())
        heappush(sim._heap, (deadline, 0, seq, carrier, carrier.fn, ()))

    def stop(self) -> None:
        """Disarm the timer if armed.

        The carrier is cancelled, not left to lapse: a stopped timer
        must not count as live work to ``peek_next_time``.
        """
        carrier = self._carrier
        if carrier is not None:
            carrier.cancelled = True
            self._carrier = None

    def _fire(self) -> None:
        carrier = self._carrier
        seq = self._seq
        if carrier.seq != seq:
            # re-armed since this entry was pushed: ride on to the key
            # the latest ``start`` reserved
            carrier.time = deadline = self._deadline
            carrier.seq = seq
            heappush(self._sim._heap, (deadline, 0, seq, carrier, carrier.fn, ()))
            return
        self._carrier = None
        self._fn(*self._args)


class PeriodicTask:
    """Calls ``fn`` every ``interval`` ns until stopped.

    The first call happens one full interval after :meth:`start` (use
    ``phase`` to shift it).  The callback runs before the next interval
    is scheduled, so a callback that calls :meth:`stop` terminates the
    task cleanly, and one that calls :meth:`stop` then :meth:`start`
    restarts it on the new phase (one tick per interval).

    ``observer=True`` marks the task as pure observation: its callback
    reads simulation state but never mutates it or schedules follow-up
    work (telemetry samplers, sanitizer sweeps, stall watchdogs).  The
    determinism harness excludes observer ticks from event-stream
    digests, because a sharded run observes per domain (D ticks per
    interval) where a serial run observes once — the *simulation*
    streams are still required to match byte-for-byte.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: int,
        fn: Callable[..., Any],
        *args: Any,
        observer: bool = False,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self.interval = interval
        self._fn = fn
        self._args = args
        self._event: Optional[Event] = None
        #: True from :meth:`start` until :meth:`stop`
        self.running = False
        self.observer = observer

    def start(self, phase: int = 0) -> None:
        """Begin ticking; first tick at ``now + interval + phase``."""
        if self.running:
            return
        self.running = True
        self._event = self._sim.schedule(self.interval + phase, self._tick)

    def stop(self) -> None:
        """Stop ticking; the pending tick is cancelled."""
        self.running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self.running:
            return
        fired = self._event
        self._fn(*self._args)
        # a callback that restarted the task (stop + start) has already
        # armed its next tick: re-arming here would tick twice
        if self.running and self._event is fired:
            # ``schedule(interval, _tick)`` in this frame: the same seq
            # draw, the same heap entry
            sim = self._sim
            sim._seq = seq = sim._seq + 1
            time = sim.now + self.interval
            fn = self._tick
            self._event = ev = Event(time, seq, fn, ())
            heappush(sim._heap, (time, 0, seq, ev, fn, ()))  # simcheck: ignore[SIM010] -- seq drawn from sim._seq just above, where schedule() draws it
