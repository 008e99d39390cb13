"""Tests for the scaled wall clock behind the wire runtime."""

import asyncio
import time

import pytest

from repro.core.timebase import seconds
from repro.runtime.clock import WallClock

#: Fast enough that a 10-virtual-second test costs ~2ms of wall time.
SCALE = 5000.0


def run(clock: WallClock, until) -> None:
    asyncio.run(clock.run_until(until))


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
