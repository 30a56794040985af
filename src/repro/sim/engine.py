"""The core event loop.

Design notes
------------
* Callback events (``fn(*args)``) rather than coroutine processes: the
  hot loop is a heap-pop plus a function call, which is the fastest
  structure pure Python offers for a packet-level simulator.
* The heap stores plain tuples ``(time, lid, seq, event, fn, args)``.
  The ``(lid, seq)`` pair is unique, so tuple comparison is decided
  entirely by the first three integers at C level — no Python
  ``__lt__`` dunder ever runs during a push or pop.
* ``lid`` is a *link id*: link deliveries carry the per-build id of the
  link they crossed (assigned deterministically by ``Topology.connect``
  in creation order), every locally-scheduled event carries 0.  Ties at
  the same instant therefore break first by link, then by insertion
  order.  This makes the ordering key **decomposable**: when a topology
  is partitioned into sharded domains (:mod:`repro.sim.sharded`), two
  events in different domains can only interact through a link
  delivery, and the delivery's ``(time, lid, seq)`` key is computed
  entirely on the sending side — so per-domain execution order is
  independent of when boundary messages are physically inserted into
  the receiving heap, and sharded runs replay the serial order exactly.
* Integer-nanosecond timestamps: no float drift, and identical event
  ordering across platforms.
* Remaining ties are broken by insertion order (a monotonically
  increasing sequence number), which makes runs fully deterministic.
* Cancellation is lazy: a cancelled event stays in the heap but is
  skipped when popped.  This is O(1) for cancel and keeps the heap code
  branch-free.  :meth:`Simulator.run` and
  :meth:`Simulator.peek_next_time` discard cancelled entries the same
  way — by popping them when they surface at the heap top — including
  at the ``until`` boundary of a stepped run, so introspection between
  stepped ``run`` calls never over-reports live work.
* Events that never need cancelling (the vast majority: packet
  serialization/propagation) can skip the :class:`Event` handle
  entirely via :meth:`Simulator.schedule_call`, and bulk loads (flow
  start times) go through :meth:`Simulator.schedule_many`, which picks
  ``heappush`` or ``heapify`` based on batch size.
"""

from __future__ import annotations

import heapq
from time import perf_counter  # simcheck: ignore[SIM002] -- read only for a profiler that keeps wall time
from typing import Any, Callable, Dict, Iterable, Optional, Tuple


class Event:
    """A cancellable scheduled callback.

    Returned by :meth:`Simulator.schedule`; hold on to it only if the
    event may need cancelling or rescheduling.  Ordering lives in the
    heap tuples, not on this object.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call repeatedly."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} {name}{state}>"


class Simulator:
    """Discrete-event simulator with an integer-nanosecond clock.

    Usage::

        sim = Simulator()
        sim.schedule(us(5), handler, arg1, arg2)
        sim.run(until=ms(10))
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: heap of (time, lid, seq, Event-or-None, fn, args) tuples
        self._heap: list[tuple] = []
        self._seq: int = 0
        #: ``(lid, seq)`` of the event being executed.  A busy-until
        #: port (:mod:`repro.net.port`) compares it with the key it
        #: reserved for the instant its wire frees, to tell whether that
        #: instant has passed when ``now`` alone is a tie.  Outside the
        #: loop ``_cur_lid`` is non-zero: every event at ``now`` has run.
        self._cur_lid: int = 1
        self._cur_seq: int = 0
        self._events_executed: int = 0
        self._running = False
        self._stopped = False
        #: observers of the executed event stream, fed in install order
        #: (an EngineProfiler from repro.telemetry.profile, the
        #: determinism digest, the shard isolation probe); while any is
        #: installed, or counting is on, run() switches to an
        #: instrumented twin loop.  The unobserved path pays two checks
        #: per run() call.
        self._observers: list = []
        #: executions per callback since count_callbacks() (None: off),
        #: keyed by the function itself — a method's ``__func__``, one
        #: key per callback type; whoever reads the table names them
        self.callback_counts: Optional[Dict[Callable[..., Any], int]] = None
        #: deepest heap seen after a counted callback
        self.max_heap_depth: int = 0

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        self._seq += 1
        ev = Event(time, self._seq, fn, args)
        heapq.heappush(self._heap, (time, 0, self._seq, ev, fn, args))
        return ev

    def schedule_call(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fast-path :meth:`schedule` without a cancellation handle.

        Skips the :class:`Event` allocation entirely; use it for events
        that are never cancelled (packet serialization, propagation).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(
            self._heap, (self.now + delay, 0, self._seq, None, fn, args)
        )

    def schedule_call_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`schedule_call`."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, 0, self._seq, None, fn, args))

    def schedule_many(
        self, items: Iterable[Tuple[int, Callable[..., Any], tuple]]
    ) -> None:
        """Bulk-schedule ``(abs_time, fn, args)`` entries, no handles.

        Small batches are pushed one by one (``m`` pushes at
        O(log n) each); genuine bulk loads append everything and
        restore the heap invariant once with ``heapify`` — O(n + m).
        The crossover is ``m * log2(n) < n``: below it, pushes are
        cheaper than re-heapifying the whole heap.  Ties break by
        overall insertion order (the shared sequence counter) either
        way, exactly as if each entry had been scheduled one by one.
        A batch with an entry in the past is rejected whole: the heap
        and the counter are left as they were.
        """
        heap = self._heap
        seq = self._seq
        now = self.now
        entries = []
        for time, fn, args in items:
            if time < now:
                raise ValueError(
                    f"cannot schedule at {time}, current time is {now}"
                )
            seq += 1
            entries.append((time, 0, seq, None, fn, args))
        self._seq = seq
        n = len(heap)
        if n and len(entries) * n.bit_length() < n:
            push = heapq.heappush
            for entry in entries:
                push(heap, entry)
            return
        heap.extend(entries)
        heapq.heapify(heap)

    # -- execution ------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the queue drains or the clock passes ``until``.

        When ``until`` is given, the clock is left at exactly ``until``
        even if the queue drained earlier, so follow-up ``run`` calls
        continue from a well-defined point.  Lazily-cancelled entries
        surfacing at the heap top — including ones beyond ``until`` —
        are discarded, so ``pending_events`` between stepped runs
        reflects live work only.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        if self._observers or self.callback_counts is not None:
            self._run_profiled(until)
            return
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        executed = self._events_executed
        try:
            if until is None:
                while heap and not self._stopped:
                    # single UNPACK beats five tuple index ops per event
                    time_, lid, seq, ev, fn, args = pop(heap)
                    if ev is not None and ev.cancelled:
                        continue
                    self.now = time_
                    self._cur_lid = lid
                    self._cur_seq = seq
                    executed += 1
                    fn(*args)
            else:
                while heap and not self._stopped:
                    head = heap[0]
                    if head[0] > until:
                        ev = head[3]
                        if ev is not None and ev.cancelled:
                            # drain cancelled heads at the boundary so
                            # stepped runs leave a clean heap top
                            pop(heap)
                            continue
                        break
                    time_, lid, seq, ev, fn, args = pop(heap)
                    if ev is not None and ev.cancelled:
                        continue
                    self.now = time_
                    self._cur_lid = lid
                    self._cur_seq = seq
                    executed += 1
                    fn(*args)
        finally:
            self._events_executed = executed
            self._running = False
            self._cur_lid = 1
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def _run_profiled(self, until: Optional[int]) -> None:
        """Instrumented twin of :meth:`run` (counting on, or an observer
        installed).

        Counts executions per callback and the heap-depth maximum in
        place, feeds every observer, and reads the wall clock only when
        an observer keeps wall time (one with a ``wall_seconds``
        accumulator).  Kept separate so the common unobserved loop stays
        free of all three.
        """
        observers = self._observers
        timed = [o for o in observers if hasattr(o, "wall_seconds")]
        counts = self.callback_counts
        max_depth = self.max_heap_depth
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        executed = self._events_executed
        dt = 0.0
        if timed:
            run_start = perf_counter()
        try:
            while heap and not self._stopped:
                if until is not None and heap[0][0] > until:
                    ev = heap[0][3]
                    if ev is not None and ev.cancelled:
                        pop(heap)
                        continue
                    break
                time_, lid, seq, ev, fn, args = pop(heap)
                if ev is not None and ev.cancelled:
                    continue
                self.now = time_
                self._cur_lid = lid
                self._cur_seq = seq
                executed += 1
                if timed:
                    t0 = perf_counter()
                    fn(*args)
                    dt = perf_counter() - t0
                else:
                    fn(*args)
                depth = len(heap)
                if counts is not None:
                    try:
                        key = fn.__func__
                    except AttributeError:  # a plain function or callable
                        key = fn
                    try:
                        counts[key] += 1
                    except KeyError:
                        counts[key] = 1
                    if depth > max_depth:
                        max_depth = depth
                if observers:
                    for observer in observers:
                        observer.note(fn, dt, depth)
        finally:
            if timed:
                elapsed = perf_counter() - run_start
                for observer in timed:
                    observer.wall_seconds += elapsed
            self.max_heap_depth = max_depth
            self._events_executed = executed
            self._running = False
            self._cur_lid = 1
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def note_executed(self, fn: Callable[..., Any], heap_depth: int) -> None:
        """The instrumented loop's bookkeeping for one callback, for a
        caller that executes this engine's events itself (the lockstep
        transport of :mod:`repro.sim.sharded`).  Keeps no wall time."""
        counts = self.callback_counts
        if counts is not None:
            key = getattr(fn, "__func__", fn)
            counts[key] = counts.get(key, 0) + 1
            if heap_depth > self.max_heap_depth:
                self.max_heap_depth = heap_depth
        for observer in self._observers:
            observer.note(fn, 0.0, heap_depth)

    def add_observer(self, observer) -> None:
        """Feed ``observer.note(fn, dt, heap_depth)`` every executed
        callback, after the observers installed before it."""
        self._observers.append(observer)

    def set_profiler(self, profiler) -> None:
        """Make ``profiler`` the one observer (``None``: no observer),
        dropping any installed before it.

        The older one-observer form, kept for the benchmark worker and
        the tests written against it; new code installs with
        :meth:`add_observer`."""
        self._observers = [] if profiler is None else [profiler]

    @property
    def profiler(self):
        """The first observer, or None."""
        return self._observers[0] if self._observers else None

    def count_callbacks(self) -> None:
        """Turn on ``callback_counts`` and ``max_heap_depth`` (the
        deterministic half of the engine profile)."""
        if self.callback_counts is None:
            self.callback_counts = {}

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    # -- introspection ----------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (for perf reporting)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Events still in the heap, including lazily-cancelled ones."""
        return len(self._heap)

    def pending_items(self) -> list:
        """Snapshot of live heap entries as ``(time, fn, args)`` tuples.

        Read-only introspection for the runtime sanitizer's in-flight
        walk; cancelled entries are filtered out but left in the heap.
        """
        return [
            (item[0], item[4], item[5])
            for item in self._heap
            if item[3] is None or not item[3].cancelled
        ]

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if drained.

        Cancelled entries surfacing at the heap top are discarded, the
        same cleanup :meth:`run` applies when popping — peeking between
        ``run`` calls never changes which live event runs next or the
        order live events run in.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            ev = head[3]
            if ev is None or not ev.cancelled:
                return head[0]
            heapq.heappop(heap)
        return None
