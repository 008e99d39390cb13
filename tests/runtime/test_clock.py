"""Tests for the scaled wall clock behind the wire runtime."""

import asyncio
import statistics
import time

import pytest

from repro.core.timebase import seconds
from repro.runtime.async_runtime import new_event_loop
from repro.runtime.clock import WallClock

#: Fast enough that a 10-virtual-second test costs ~2ms of wall time.
SCALE = 5000.0


def run(clock: WallClock, until) -> None:
    asyncio.run(clock.run_until(until))


def run_on_runtime_loop(clock: WallClock, until) -> None:
    loop = new_event_loop()
    try:
        loop.run_until_complete(clock.run_until(until))
    finally:
        loop.close()


class TestScheduling:
    def test_buffered_schedules_fire_in_order(self):
        clock = WallClock(time_scale=SCALE)
        fired = []
        clock.at(seconds(2), lambda: fired.append("late"))
        clock.at(seconds(1), lambda: fired.append("early"))
        run(clock, seconds(3))
        assert fired == ["early", "late"]
        assert clock.events_processed == 2

    def test_run_until_pins_virtual_time_to_horizon(self):
        clock = WallClock(time_scale=SCALE)
        run(clock, seconds(3))
        assert clock.now == seconds(3)

    def test_unfired_events_survive_into_next_run(self):
        clock = WallClock(time_scale=SCALE)
        fired = []
        # Far past the first horizon: wall-sleep overshoot (OS jitter) must
        # not be able to reach it during the first run.
        clock.at(seconds(500), lambda: fired.append("x"))
        run(clock, seconds(1))
        assert fired == []
        run(clock, seconds(1000))
        assert fired == ["x"]

    def test_cancel_prevents_callback(self):
        clock = WallClock(time_scale=SCALE)
        fired = []
        event = clock.at(seconds(1), lambda: fired.append("x"))
        event.cancel()
        run(clock, seconds(2))
        assert fired == []

    def test_past_schedule_clamped_to_now_not_rejected(self):
        # Wall jitter makes exact-tick schedules impossible; the clock
        # clamps to "now" where the simulator would raise.
        clock = WallClock(time_scale=SCALE)
        run(clock, seconds(5))
        fired = []
        clock.at(seconds(1), lambda: fired.append("x"))
        run(clock, seconds(6))
        assert fired == ["x"]

    def test_after_schedules_relative_to_now(self):
        clock = WallClock(time_scale=SCALE)
        fired = []
        clock.after(seconds(1), lambda: fired.append("x"))
        run(clock, seconds(2))
        assert fired == ["x"]

    def test_negative_after_rejected(self):
        with pytest.raises(ValueError):
            WallClock(time_scale=SCALE).after(-1, lambda: None)

    def test_nonpositive_time_scale_rejected(self):
        with pytest.raises(ValueError):
            WallClock(time_scale=0)

    def test_stop_halts_later_events(self):
        clock = WallClock(time_scale=SCALE)
        fired = []
        clock.at(seconds(1), clock.stop)
        clock.at(seconds(5), lambda: fired.append("never"))
        run(clock, seconds(10))
        assert fired == []

    def test_stop_leaves_later_events_queued(self):
        # As on the simulator: a stopped run keeps its pending work, and
        # the next run delivers it.
        clock = WallClock(time_scale=SCALE)
        fired = []
        clock.at(seconds(1), clock.stop)
        clock.at(seconds(5), lambda: fired.append("later"))
        run(clock, seconds(10))
        assert fired == []
        run(clock, seconds(20))
        assert fired == ["later"]

    def test_events_due_after_the_horizon_wait_for_the_next_run(self):
        # A stalled callback carries the loop past the deadline and past
        # the next timer's wall time; that timer is still not this run's.
        clock = WallClock(time_scale=SCALE)
        fired = []
        clock.at(seconds(1), lambda: time.sleep(0.01))  # 50 virtual s
        clock.at(seconds(3), lambda: fired.append("late"))
        run(clock, seconds(2))
        assert fired == []
        assert clock.now == seconds(2)
        run(clock, seconds(10))
        assert fired == ["late"]

    def test_a_late_callback_still_finishes_its_chain_by_the_horizon(self):
        # The callback just before the horizon overruns its wall time, then
        # schedules a chain due by the horizon: the kernel would run all of
        # it in this run, so the wire clock must too, at times <= h.
        clock = WallClock(time_scale=SCALE)
        horizon = seconds(2)
        ran = []

        def step(then=None):
            def callback():
                ran.append(clock.now)
                if then is not None:
                    clock.at(then, step())

            return callback

        def late():
            time.sleep(0.01)  # 50 virtual s past the horizon's wall time
            clock.at(horizon - 500, step(then=horizon - 200))

        clock.at(horizon - 1_000, late)
        run(clock, horizon)
        assert len(ran) == 2
        assert all(t <= horizon for t in ran)
        assert clock.now == horizon

    def test_freeze_runs_what_is_due_by_the_horizon(self):
        # Timers a stalled loop had not reached by the deadline run at the
        # freeze, in time order, with what they schedule that is due too.
        clock = WallClock(time_scale=SCALE)
        fired = []

        def first():
            fired.append(1)
            clock.at(seconds(2), lambda: fired.append(2))

        clock.at(seconds(1), first)
        clock.at(seconds(5), lambda: fired.append(5))
        clock.freeze(seconds(3))
        assert fired == [1, 2]
        assert clock.now == seconds(3)
        run(clock, seconds(6))
        assert fired == [1, 2, 5]


class TestWallPacing:
    def test_now_is_monotonic_across_runs(self):
        clock = WallClock(time_scale=SCALE)
        samples = []
        clock.at(seconds(1), lambda: samples.append(clock.now))
        run(clock, seconds(2))
        samples.append(clock.now)
        run(clock, seconds(4))
        samples.append(clock.now)
        assert samples == sorted(samples)


class TestOneQueue:
    """The clock keeps the kernel's queue and arms one loop timer."""

    def test_equal_times_fire_in_scheduling_order(self):
        clock = WallClock(time_scale=SCALE)
        fired = []
        for i in range(64):
            clock.at(seconds(1), lambda i=i: fired.append(i))
        run(clock, seconds(2))
        assert fired == list(range(64))

    def test_one_clock_timer_whatever_is_pending(self):
        clock = WallClock(time_scale=100.0)  # a virtual second is 10 wall ms
        armed = []

        def count_timers():
            scheduled = asyncio.get_running_loop()._scheduled
            armed.append(sum(not handle.cancelled() for handle in scheduled))

        clock.at(seconds(1), count_timers)
        for i in range(1_000):
            clock.at(seconds(2) + 1_000 * i, lambda: None)
        run(clock, seconds(4))
        # The clock's one timer, for the head or the horizon (and popped
        # while its batch runs); asyncio's heap orders none of the events.
        assert armed and armed[0] <= 1
        assert clock.events_processed == 1_001

    def test_stop_ends_run_until_within_one_iteration(self):
        clock = WallClock(time_scale=1.0)  # the horizon is 60 wall seconds
        iterations = []

        def spin():
            iterations[0] += 1
            asyncio.get_running_loop().call_soon(spin)

        def stop():
            clock.stop()
            iterations.append(0)
            asyncio.get_running_loop().call_soon(spin)

        clock.at(seconds(0.001), stop)

        async def session():
            await clock.run_until(seconds(60))
            return iterations[0]

        assert asyncio.run(session()) <= 2

    def test_cancel_heavy_run_compacts_tombstones(self):
        # Timeout guards: every event schedules a guard far ahead and
        # cancels the previous one, so tombstones would pile up unbounded.
        clock = WallClock(time_scale=100.0)
        guard = [clock.at(seconds(900), lambda: None)]
        depths = []

        def step(i):
            guard[0].cancel()
            guard[0] = clock.at(seconds(900), lambda: None)
            depths.append(len(clock._queue))
            if i < 500:
                clock.at(seconds(1) + 1_000 * (i + 1), lambda: step(i + 1))

        clock.at(seconds(1), lambda: step(0))
        run(clock, seconds(10))
        assert len(depths) == 501
        assert max(depths) <= 8

    def test_events_close_together_share_a_wake_and_none_runs_early(self):
        # At x20 the window is 5 virtual ms (250 wall us): three events
        # 4 virtual ms (200 wall us) apart need fewer wakes than events,
        # and each runs no earlier than the wall clock reaches it.
        clock = WallClock(time_scale=20.0)
        batches, early = [], []
        wake = clock._wake

        def counting_wake():
            before = clock.events_processed
            wake()
            batches.append(clock.events_processed - before)

        def check(due):
            # Less a wall microsecond: the loop's time and ``monotonic()``
            # were read one after the other at activation.
            wall = clock._anchor + (time.monotonic() - clock._origin) * 20e6
            early.append(wall < due - 20)

        clock._wake = counting_wake
        for i in range(3):
            due = seconds(0.1) + 4_000 * i
            clock.at(due, lambda due=due: check(due))
        run_on_runtime_loop(clock, seconds(0.2))
        assert early == [False, False, False]
        assert 1 <= len([n for n in batches if n]) < 3

    def test_wakes_on_time_on_the_runtime_loop(self):
        # 200 timers 0.3 wall ms apart (time_scale 1: a tick is a wall
        # microsecond); epoll rounds each wait up to a whole millisecond,
        # a median of about 0.6 ms here.  A descheduled process is late for
        # every timer due during the stall, so the best of three rounds
        # counts: rounding is late in every round, a busy host only in some.
        assert min(median_wake_lateness() for __ in range(3)) < 300


def median_wake_lateness() -> float:
    """Median ticks a timer ran after its due time, at time_scale 1."""
    clock = WallClock(time_scale=1.0)
    lateness = []
    for i in range(200):
        due = seconds(0.01) + 300 * i
        clock.at(due, lambda due=due: lateness.append(clock.now - due))
    run_on_runtime_loop(clock, seconds(0.08))
    assert len(lateness) == 200
    return statistics.median(lateness)
