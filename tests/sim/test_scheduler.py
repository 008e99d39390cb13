"""Tests for the discrete-event scheduler."""

import pytest

from repro.sim.scheduler import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(30, lambda: order.append("c"))
        sim.at(10, lambda: order.append("a"))
        sim.at(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.at(10, lambda: order.append(1))
        sim.at(10, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_now_advances_during_callbacks(self):
        sim = Simulator()
        seen = []
        sim.at(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]

    def test_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.at(10, lambda: sim.after(5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [15]

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().after(-1, lambda: None)


class TestRunControl:
    def test_run_until_clamps_clock(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run(until=100)
        assert sim.now == 100

    def test_run_owns_the_clock(self):
        # ``now`` is a plain attribute that only run() assigns: each
        # callback sees its own entry's time, a drained run leaves the
        # clock on the last popped event, and run(until=...) on ``until``.
        sim = Simulator()
        seen: list[int] = []
        handles = [sim.at(t, lambda: seen.append(sim.now)) for t in (3, 8, 8, 21)]
        sim.run(until=10)
        assert seen == [h.time for h in handles[:3]]
        assert sim.now == 10
        sim.run()
        assert seen == [h.time for h in handles]
        assert sim.now == handles[-1].time

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.at(200, lambda: fired.append(True))
        sim.run(until=100)
        assert not fired
        sim.run(until=300)
        assert fired

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        handle = sim.at(10, lambda: fired.append(True))
        handle.cancel()
        sim.run()
        assert not fired

    def test_stop_from_callback(self):
        sim = Simulator()
        order = []
        sim.at(10, lambda: (order.append(1), sim.stop()))
        sim.at(20, lambda: order.append(2))
        sim.run()
        assert order == [1]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(RuntimeError):
                sim.run()

        sim.at(1, reenter)
        sim.run()

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1, 2, 3):
            sim.at(t, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        handle = sim.at(5, lambda: None)
        sim.at(9, lambda: None)
        handle.cancel()
        assert sim.peek() == 9

    def test_cancelled_tombstones_are_compacted(self):
        # A schedule-then-cancel workload must not grow the heap without
        # bound: once tombstones dominate, the queue is rebuilt in place.
        sim = Simulator()
        keeper = sim.at(10_000, lambda: None)
        handles = [sim.at(t + 1, lambda: None) for t in range(1000)]
        for handle in handles:
            handle.cancel()
        assert not keeper.cancelled
        assert len(sim._queue) <= 2
        assert sim.peek() == 10_000

    def test_compaction_preserves_order_and_delivery(self):
        sim = Simulator()
        ran: list[int] = []
        for t in range(1, 501):
            sim.at(t, lambda t=t: ran.append(t))
        victims = [sim.at(600 + t, lambda: None) for t in range(600)]
        for handle in victims:
            handle.cancel()
        sim.run()
        assert ran == list(range(1, 501))
        assert sim.events_processed == 500

    def test_cancel_after_run_does_not_corrupt_queue(self):
        sim = Simulator()
        handle = sim.at(1, lambda: None)
        sim.at(2, lambda: None)
        sim.run()
        for tick in range(3, 13):
            sim.at(tick, lambda: None)
        handle.cancel()  # already executed; must stay a no-op
        # ...including in the tombstone count: the entry left the heap when
        # it ran, and counting it would make compaction fire early forever.
        assert sim._cancelled_pending == 0
        assert len(sim._queue) == 10
        assert sim.peek() == 3

    def test_handle_keeps_time_cancelled_and_cancel(self):
        # The handle is the queue entry; its public face is unchanged.
        sim = Simulator()
        handle = sim.at(7, lambda: None)
        assert handle.time == 7 and not handle.cancelled
        handle.cancel()
        assert handle.cancelled
        handle.cancel()  # idempotent
        sim.run()
        assert sim.events_processed == 0
