"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTask, Timer
from repro.sim.rng import RngRegistry


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(5, order.append, tag)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_zero_delay_runs_after_current_instant_events(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0, order.append, "inner")

        sim.schedule(1, outer)
        sim.schedule(1, order.append, "sibling")
        sim.run()
        assert order == ["outer", "sibling", "inner"]

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run(until=50)
        assert sim.now == 50
        assert sim.pending_events == 1
        sim.run(until=200)
        assert sim.now == 200

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        hits = []
        ev = sim.schedule(10, hits.append, 1)
        ev.cancel()
        sim.run()
        assert hits == []

    def test_stop_halts_mid_run(self):
        sim = Simulator()
        order = []
        sim.schedule(1, order.append, "a")
        sim.schedule(2, lambda: (order.append("b"), sim.stop()))
        sim.schedule(3, order.append, "c")
        sim.run()
        assert order == ["a", "b"]
        assert sim.pending_events == 1

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_peek_next_time_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(5, lambda: None)
        sim.schedule(9, lambda: None)
        ev.cancel()
        assert sim.peek_next_time() == 9

    def test_peek_empty_returns_none(self):
        assert Simulator().peek_next_time() is None

    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
    def test_execution_order_is_sorted_by_time(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, fired.append, d)
        sim.run()
        assert fired == sorted(delays)
        assert len(fired) == len(delays)

    def test_cancel_then_peek_then_run_ordering(self):
        # regression: peek_next_time discards lazily-cancelled events
        # from the heap; the cleanup must leave the live-event order and
        # counters exactly as if peek had never been called
        sim = Simulator()
        order = []
        cancelled = sim.schedule(5, order.append, "cancelled")
        sim.schedule(10, order.append, "b")
        sim.schedule(7, order.append, "a")
        cancelled.cancel()
        assert sim.peek_next_time() == 7  # skips the cancelled head
        before = sim.pending_events
        assert sim.peek_next_time() == 7  # idempotent: no more popping
        assert sim.pending_events == before
        sim.run()
        assert order == ["a", "b"]
        assert sim.events_executed == 2  # cancelled event never counted
        assert sim.now == 10

    def test_stepped_run_until_drains_cancelled_heads(self):
        # the sharded barrier loop steps run(until=window) repeatedly;
        # events cancelled between windows must neither fire nor stall
        # the heap when they sit at the head at a window boundary
        sim = Simulator()
        order = []
        doomed = [sim.schedule(15 + i, order.append, f"dead{i}") for i in range(3)]
        sim.schedule(5, order.append, "a")
        sim.schedule(25, order.append, "b")
        sim.schedule(45, order.append, "c")
        sim.run(until=10)
        assert order == ["a"] and sim.now == 10
        for ev in doomed:
            ev.cancel()
        # cancelled events 15..17 are now the heap head; stepping across
        # them must skip straight to the live event at 25
        sim.run(until=20)
        assert order == ["a"] and sim.now == 20
        sim.run(until=30)
        assert order == ["a", "b"] and sim.now == 30
        sim.run(until=50)
        assert order == ["a", "b", "c"]
        assert sim.now == 50
        assert sim.events_executed == 3  # cancelled heads never counted
        assert sim.pending_events == 0

    def test_cancel_peek_interleaved_with_run_chunks(self):
        # the runner's pattern: run(until=...), peek, run(until=...)
        sim = Simulator()
        order = []
        ev = sim.schedule(30, order.append, "x")
        sim.schedule(10, order.append, "early")
        sim.schedule(50, order.append, "late")
        sim.run(until=20)
        ev.cancel()
        assert sim.peek_next_time() == 50
        sim.run(until=100)
        assert order == ["early", "late"]


class TestFastPathScheduling:
    def test_schedule_call_executes_in_order(self):
        sim = Simulator()
        order = []
        assert sim.schedule_call(20, order.append, "b") is None
        sim.schedule(10, order.append, "a")  # Event path interleaves
        sim.schedule_call_at(30, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_schedule_call_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_call(-1, lambda: None)

    def test_schedule_call_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_call_at(5, lambda: None)

    def test_schedule_many_bulk_load(self):
        sim = Simulator()
        order = []
        sim.schedule_many(
            [(30, order.append, ("c",)), (10, order.append, ("a",))]
        )
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_schedule_many_ties_break_by_insertion(self):
        sim = Simulator()
        order = []
        sim.schedule(5, order.append, "first")
        sim.schedule_many(
            [(5, order.append, ("second",)), (5, order.append, ("third",))]
        )
        sim.run()
        assert order == ["first", "second", "third"]

    def test_schedule_many_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_many([(5, lambda: None, ())])

    def test_schedule_many_small_batch_matches_one_by_one(self):
        # a tiny batch against a large heap takes the heappush branch;
        # the same loads scheduled one by one must execute identically
        def load(sim, order):
            for i in range(200):
                sim.schedule_call_at(2 * i, order.append, ("bulk", 2 * i))

        batched = Simulator()
        batched_order = []
        load(batched, batched_order)
        batched.schedule_many(
            [(7, batched_order.append, (("batch", k),)) for k in range(3)]
        )
        serial = Simulator()
        serial_order = []
        load(serial, serial_order)
        for k in range(3):
            serial.schedule_call_at(7, serial_order.append, ("batch", k))
        batched.run()
        serial.run()
        assert batched_order == serial_order

    def test_schedule_many_small_batch_tie_order_interleaved(self):
        # small-batch pushes share the global sequence counter, so ties
        # at one instant keep overall insertion order across the
        # batched and non-batched scheduling paths
        sim = Simulator()
        for i in range(100):
            sim.schedule_call_at(1000 + i, lambda: None)
        order = []
        sim.schedule(5, order.append, "before")
        sim.schedule_many([(5, order.append, ("batch",))])
        sim.schedule(5, order.append, "after")
        sim.run(until=10)
        assert order == ["before", "batch", "after"]

    def test_mixed_fast_and_cancellable_events(self):
        sim = Simulator()
        order = []
        ev = sim.schedule(10, order.append, "cancel-me")
        sim.schedule_call(10, order.append, "keep")
        ev.cancel()
        sim.run()
        assert order == ["keep"]
        assert sim.events_executed == 1


class TestTimer:
    def test_fires_once(self):
        sim = Simulator()
        hits = []
        t = Timer(sim, hits.append, "x")
        t.start(10)
        sim.run()
        assert hits == ["x"]

    def test_restart_supersedes_previous(self):
        sim = Simulator()
        hits = []
        t = Timer(sim, lambda: hits.append(sim.now))
        t.start(10)
        sim.schedule(5, t.start, 20)  # re-arm at t=5 for t=25
        sim.run()
        assert hits == [25]

    def test_stop_disarms(self):
        sim = Simulator()
        hits = []
        t = Timer(sim, hits.append, 1)
        t.start(10)
        t.stop()
        sim.run()
        assert hits == []
        assert not t.armed

    def test_armed_property(self):
        sim = Simulator()
        t = Timer(sim, lambda: None)
        assert not t.armed
        t.start(5)
        assert t.armed
        sim.run()
        assert not t.armed


    # -- the lazy timer: one carrier entry, expiry at the eager key -----------

    def test_rearms_leave_one_heap_entry(self):
        sim = Simulator()
        hits = []
        t = Timer(sim, lambda: hits.append(sim.now))
        t.start(10)
        for i in range(100):
            t.start(10 + i)
        assert sim.pending_events == 1
        sim.run()
        assert hits == [109]
        # the carrier surfaced once stale (t=10) and once for real
        assert sim.events_executed == 2

    def test_rearm_to_earlier_deadline_fires_at_the_earlier_one(self):
        sim = Simulator()
        hits = []
        t = Timer(sim, lambda: hits.append(sim.now))
        t.start(100)
        t.start(10)
        # the old carrier cannot ride to an earlier key: it is replaced
        assert [time for time, _, _ in sim.pending_items()] == [10]
        sim.run()
        assert hits == [10]
        assert sim.events_executed == 1  # the carrier at t=100 is inert
        assert not t.armed

    def test_stop_leaves_no_live_work(self):
        sim = Simulator()
        t = Timer(sim, lambda: None)
        t.start(10)
        t.start(30)  # carrier at 10, deadline 30
        t.stop()
        assert sim.pending_items() == []
        assert sim.peek_next_time() is None
        sim.run()
        assert sim.events_executed == 0
        assert sim.now == 0

    def test_rearm_at_the_instant_the_carrier_fires(self):
        sim = Simulator()
        log = []
        t = Timer(sim, log.append, "timer")
        # three events at t=10, in seq order: the re-arm, the carrier,
        # a bystander — the re-armed expiry owes a seq later than all
        sim.schedule(10, t.start, 0)
        t.start(10)
        sim.schedule(10, log.append, "bystander")
        sim.run()
        assert log == ["bystander", "timer"]
        assert sim.now == 10

    def test_start_from_inside_the_callback(self):
        sim = Simulator()
        hits = []

        def on_expiry():
            hits.append(sim.now)
            if len(hits) < 3:
                t.start(7)

        t = Timer(sim, on_expiry)
        t.start(7)
        sim.run()
        assert hits == [7, 14, 21]
        assert not t.armed

    def test_stepped_run_ending_between_stale_carrier_and_deadline(self):
        sim = Simulator()
        hits = []
        t = Timer(sim, lambda: hits.append(sim.now))
        t.start(10)
        sim.schedule(5, t.start, 20)  # deadline 25, carrier still at 10
        sim.run(until=15)
        assert hits == [] and t.armed
        assert sim.peek_next_time() == 25
        sim.run(until=30)
        assert hits == [25] and not t.armed
        assert sim.peek_next_time() is None

    @pytest.mark.parametrize("armed_first", [False, True])
    def test_negative_delay_rejected(self, armed_first):
        """On an armed timer too, and it ends up as the eager timer's
        did (``stop()`` then a ``schedule`` that raised): disarmed, no
        seq drawn for the rejected call."""
        from host_pr17 import EagerTimer

        def execute(timer_cls):
            sim = Simulator()
            hits = []
            t = timer_cls(sim, hits.append, 1)
            if armed_first:
                t.start(10)
            seq = sim._seq
            with pytest.raises(ValueError):
                t.start(-1)
            state = (t.armed, sim._seq - seq, sim.peek_next_time())
            sim.run()
            return state, hits

        assert execute(Timer) == execute(EagerTimer) == ((False, 0, None), [])

    @given(
        program=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),  # when the op runs
                st.sampled_from(["start", "start", "stop", "foreign"]),
                st.integers(min_value=0, max_value=4),  # its delay
            ),
            max_size=30,
        ),
        on_expiry=st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
            max_size=6,
        ),
        steps=st.lists(st.integers(min_value=0, max_value=12), max_size=4),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_firing_log_as_the_eager_timer(self, program, on_expiry, steps):
        """Random programs of start / stop / foreign schedules on a
        handful of instants, so ties with a deadline — armed before and
        after the foreign event — are the common case: the interleaved
        log must be the cancel-and-reschedule timer's."""
        from host_pr17 import EagerTimer

        def execute(timer_cls):
            sim = Simulator()
            log = []
            rearms = list(on_expiry)

            def expired():
                log.append((sim.now, "expired"))
                if rearms:
                    delay = rearms.pop(0)
                    if delay is not None:
                        timer.start(delay)

            timer = timer_cls(sim, expired)

            def op(i, kind, delay):
                if kind == "start":
                    timer.start(delay)
                elif kind == "stop":
                    timer.stop()
                else:
                    sim.schedule(delay, log.append, (sim.now + delay, f"foreign{i}"))
                log.append((sim.now, f"{kind}{i}", timer.armed))

            for i, (at, kind, delay) in enumerate(program):
                sim.schedule_at(at, op, i, kind, delay)
            for until in sorted(steps):
                sim.run(until=until)
                log.append((sim.now, timer.armed, sim.peek_next_time() is None))
            sim.run()
            log.append((sim.now, timer.armed, sim.peek_next_time() is None))
            return log

        assert execute(Timer) == execute(EagerTimer)


class TestPeriodicTask:
    def test_ticks_at_interval(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 10, lambda: ticks.append(sim.now))
        task.start()
        sim.run(until=35)
        task.stop()
        assert ticks == [10, 20, 30]

    def test_stop_from_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            task.stop()

        task = PeriodicTask(sim, 10, tick)
        task.start()
        sim.run(until=100)
        assert ticks == [10]

    def test_phase_shifts_first_tick(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 10, lambda: ticks.append(sim.now))
        task.start(phase=3)
        sim.run(until=25)
        task.stop()
        assert ticks == [13, 23]

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTask(Simulator(), 0, lambda: None)

    def test_double_start_is_noop(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 10, lambda: ticks.append(sim.now))
        task.start()
        task.start()
        sim.run(until=15)
        task.stop()
        assert ticks == [10]


class TestRngRegistry:
    def test_same_name_same_stream(self):
        r = RngRegistry(seed=42)
        a = [r.stream("x").random() for _ in range(3)]
        r2 = RngRegistry(seed=42)
        b = [r2.stream("x").random() for _ in range(3)]
        assert a == b

    def test_different_names_independent(self):
        r = RngRegistry(seed=42)
        a = r.stream("a").random()
        b = r.stream("b").random()
        assert a != b

    def test_different_seeds_differ(self):
        assert (
            RngRegistry(1).stream("x").random()
            != RngRegistry(2).stream("x").random()
        )

    def test_fork_is_deterministic(self):
        a = RngRegistry(5).fork("rep1").stream("w").random()
        b = RngRegistry(5).fork("rep1").stream("w").random()
        assert a == b
