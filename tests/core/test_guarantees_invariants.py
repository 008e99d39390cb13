"""Tests for invariant, periodic, and periodic-copy guarantees."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.guarantees import invariant, periodic
from repro.core.guarantees.invariants import (
    PeriodicCopyGuarantee,
    _violation_intervals,
)
from repro.core.intervals import Interval, IntervalSet
from repro.core.items import DataItemRef
from repro.core.timebase import DAY, clock_time, hours, seconds

from conftest import make_timeline_trace

X = DataItemRef("X")
Y = DataItemRef("Y")


def leq(state):
    return state[X] <= state[Y]


class TestInvariant:
    def test_holds_throughout(self):
        trace = make_timeline_trace(
            {
                "X": [(0, 1), (seconds(10), 5)],
                "Y": [(0, 10), (seconds(20), 6)],
            },
            horizon=seconds(60),
        )
        assert invariant("x<=y", [X, Y], leq).check(trace).valid

    def test_transient_violation_detected(self):
        trace = make_timeline_trace(
            {
                "X": [(0, 1), (seconds(10), 20), (seconds(30), 2)],
                "Y": [(0, 10)],
            },
            horizon=seconds(60),
        )
        report = invariant("x<=y", [X, Y], leq).check(trace)
        assert not report.valid
        # The violation lasted exactly [10s, 30s).
        assert report.stats["violation_time_seconds"] == 20.0

    def test_violation_at_final_segment(self):
        trace = make_timeline_trace(
            {"X": [(0, 1), (seconds(50), 99)], "Y": [(0, 10)]},
            horizon=seconds(60),
        )
        report = invariant("x<=y", [X, Y], leq).check(trace)
        assert not report.valid
        assert report.stats["violation_time_seconds"] == 10.0


class TestPeriodic:
    def window(self):
        return clock_time(17), clock_time(8)  # wraps midnight

    def test_windows_wrap_midnight(self):
        start, end = self.window()
        guarantee = periodic("w", [X, Y], leq, start, end)
        windows = guarantee.windows(2 * DAY)
        assert windows[0].start == clock_time(17)
        assert windows[0].end == DAY + clock_time(8)

    def test_daytime_violation_is_ignored(self):
        start, end = self.window()
        trace = make_timeline_trace(
            {
                # X spikes above Y at noon, recovers by 16:00.
                "X": [(0, 1), (hours(12), 50), (hours(16), 1)],
                "Y": [(0, 10)],
            },
            horizon=DAY,
        )
        assert periodic("w", [X, Y], leq, start, end).check(trace).valid

    def test_window_violation_detected(self):
        start, end = self.window()
        trace = make_timeline_trace(
            {
                "X": [(0, 1), (hours(20), 50)],  # violates inside window
                "Y": [(0, 10)],
            },
            horizon=DAY,
        )
        report = periodic("w", [X, Y], leq, start, end).check(trace)
        assert not report.valid
        assert report.stats["windows_violated"] == 1


class TestPeriodicCopy:
    def test_pairs_and_checks_each_instance(self):
        from repro.core.events import spontaneous_write_desc
        from repro.core.trace import ExecutionTrace

        trace = ExecutionTrace()
        for key in ("a1", "a2"):
            trace.seed(DataItemRef("src", (key,)), 100)
            trace.seed(DataItemRef("dst", (key,)), 100)
        # A business-hours divergence on a1, fixed by 17:00.
        trace.record(
            hours(10),
            "s",
            spontaneous_write_desc(DataItemRef("src", ("a1",)), 100, 150),
        )
        trace.record(
            hours(17),
            "s",
            spontaneous_write_desc(DataItemRef("dst", ("a1",)), 100, 150),
        )
        trace.close(DAY)
        guarantee = PeriodicCopyGuarantee(
            "src", "dst", clock_time(17, 15), clock_time(8)
        )
        report = guarantee.check(trace)
        assert report.valid
        assert report.checked_instances == 2  # one window x two accounts

    def test_window_divergence_fails(self):
        from repro.core.events import spontaneous_write_desc
        from repro.core.trace import ExecutionTrace

        trace = ExecutionTrace()
        trace.seed(DataItemRef("src", ("a1",)), 100)
        trace.seed(DataItemRef("dst", ("a1",)), 100)
        trace.record(
            hours(20),  # inside the guaranteed window!
            "s",
            spontaneous_write_desc(DataItemRef("src", ("a1",)), 100, 150),
        )
        trace.close(DAY)
        guarantee = PeriodicCopyGuarantee(
            "src", "dst", clock_time(17, 15), clock_time(8)
        )
        assert not guarantee.check(trace).valid


def _bisecting_violation_intervals(trace, items, predicate):
    """The pre-sweep checker, kept here as the reference: the state at
    every joint change point, looked up by bisecting each item's timeline."""
    timelines = {ref: trace.timeline(ref) for ref in items}
    points = sorted(
        {t for line in timelines.values() for t, __ in line.change_points()}
    )
    bad = []
    for index, start in enumerate(points):
        end = points[index + 1] if index + 1 < len(points) else trace.horizon
        if end <= start:
            continue
        state = {ref: line.value_at(start) for ref, line in timelines.items()}
        if not predicate(state):
            bad.append(Interval(start, end))
    return IntervalSet(bad)


class TestMergedSweep:
    # A few ticks and values over up to four items: simultaneous changes,
    # no-op writes and a change exactly at the horizon (tick 12) are common.
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=8),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_bisection(self, histories, bound):
        names = [f"I{index}" for index in range(len(histories))]
        trace = make_timeline_trace(
            {name: sorted(history) for name, history in zip(names, histories)},
            horizon=12,
        )
        items = [DataItemRef(name) for name in names]
        seen = []

        def predicate(state):
            seen.append(dict(state))
            return sum(v for v in state.values() if isinstance(v, int)) <= bound

        swept = _violation_intervals(trace, items, predicate)
        states, seen = seen, []
        assert swept == _bisecting_violation_intervals(trace, items, predicate)
        # Once per maximal joint region, on the same full states, in order.
        assert states == seen
        assert all(list(state) == items for state in states)

    # Named shapes the random histories above reach only by chance.
    CASES = {
        "simultaneous changes across items": (
            {"X": [(0, 1), (4, 3), (8, 0)], "Y": [(0, 2), (4, 0), (8, 5)]},
            ["X", "Y"],
        ),
        "an item never written": ({"X": [(0, 1), (5, 4)]}, ["X", "Z"]),
        "three items": (
            {
                "X": [(0, 0), (3, 2), (9, 0)],
                "Y": [(0, 1), (3, 1), (6, 3)],
                "Z": [(2, 1), (6, 0), (9, 2)],
            },
            ["X", "Y", "Z"],
        ),
        "a duplicated ref": (
            {"X": [(0, 1), (4, 3)], "Y": [(0, 2), (4, 1), (7, 0)]},
            ["X", "Y", "X"],
        ),
        "a change at the horizon": (
            {"X": [(0, 0), (6, 3), (12, 0)], "Y": [(0, 1), (12, 5)]},
            ["X", "Y"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_named_case_agrees_with_bisection(self, case):
        histories, names = self.CASES[case]
        trace = make_timeline_trace(histories, horizon=12)
        items = [DataItemRef(name) for name in names]
        seen = []

        def predicate(state):
            seen.append(dict(state))
            return sum(v for v in state.values() if isinstance(v, int)) <= 3

        swept = _violation_intervals(trace, items, predicate)
        states, seen = seen, []
        assert swept == _bisecting_violation_intervals(trace, items, predicate)
        assert swept  # each case violates somewhere
        assert states == seen

    def test_change_exactly_at_the_horizon_opens_no_region(self):
        trace = make_timeline_trace(
            {"X": [(0, 1), (seconds(5), 20), (seconds(10), 1)], "Y": [(0, 10)]},
            horizon=seconds(10),
        )
        bad = _violation_intervals(trace, [X, Y], leq)
        assert list(bad) == [Interval(seconds(5), seconds(10))]
