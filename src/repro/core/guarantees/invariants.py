"""Invariant and periodic guarantees.

- :class:`InvariantGuarantee` — a predicate over data items that must hold at
  **all** times, e.g. the Demarcation Protocol's ``X <= Y`` (Section 6.1).
- :class:`PeriodicGuarantee` — a predicate that must hold during a recurring
  daily window, e.g. "branch and head-office balances are equal every day
  from 5:15 p.m. to 8 a.m." (Section 6.4).

Both are checked exactly: state histories are piecewise constant, so it
suffices to evaluate the predicate once per maximal constant region of the
joint state, which the checker walks in one merged sweep over the items'
change points (linear in the total number of changes).
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable

from repro.core.guarantees.base import Guarantee, GuaranteeReport
from repro.core.intervals import Interval, IntervalSet
from repro.core.items import DataItemRef, Value
from repro.core.timebase import DAY, Ticks, format_ticks, to_seconds
from repro.core.trace import ExecutionTrace

Predicate = Callable[[dict[DataItemRef, Value]], bool]


def _violation_intervals(
    trace: ExecutionTrace, items: list[DataItemRef], predicate: Predicate
) -> IntervalSet:
    """The set of times at which the predicate does **not** hold.

    One merged sweep over the items' change arrays, in time order (a stable
    sort of their positions; no object per change): the joint state takes
    each change (every item changes at time 0) and the predicate runs once
    per maximal region in which no item changes, after its instant's last.
    """
    times: list[Ticks] = []
    values: list[Value] = []
    owners: list[DataItemRef] = []
    for ref, timeline in zip(items, trace.timelines(items)):
        changed = timeline.change_times()
        times += changed
        values += timeline.change_values()
        owners += repeat(ref, len(changed))
    order = sorted(range(len(times)), key=times.__getitem__)
    starts = list(map(times.__getitem__, order))
    ends = starts[1:]
    ends.append(trace.horizon)
    state: dict[DataItemRef, Value] = {}
    bad: list[Interval] = []
    for ref, value, start, end in zip(
        map(owners.__getitem__, order), map(values.__getitem__, order), starts, ends
    ):
        state[ref] = value
        if end > start and not predicate(state):
            bad.append(Interval(start, end))
    return IntervalSet(bad)


class InvariantGuarantee(Guarantee):
    """A predicate that must hold at every instant of the trace."""

    def __init__(
        self,
        name: str,
        items: list[DataItemRef],
        predicate: Predicate,
        formula: str,
    ) -> None:
        super().__init__(name, formula, metric=False)
        self.items = list(items)
        self.predicate = predicate

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        report = GuaranteeReport(self.name, valid=True, checked_instances=1)
        bad = _violation_intervals(trace, self.items, self.predicate)
        if bad:
            report.valid = False
            for interval in bad:
                report.counterexamples.append(
                    f"invariant violated during [{format_ticks(interval.start)}, "
                    f"{format_ticks(interval.end)})"
                )
        report.stats["violation_time_seconds"] = to_seconds(bad.total_length)
        horizon = max(trace.horizon, 1)
        report.stats["violation_fraction"] = bad.total_length / horizon
        return report


class PeriodicGuarantee(Guarantee):
    """A predicate that must hold throughout a recurring daily window.

    ``window_start`` / ``window_end`` are ticks-since-midnight
    (:func:`repro.core.timebase.clock_time`); a window that "wraps" past
    midnight (e.g. 17:15 -> 08:00) is handled by extending into the next day.
    Windows clipped by the trace horizon are checked over their elapsed part.
    """

    def __init__(
        self,
        name: str,
        items: list[DataItemRef],
        predicate: Predicate,
        window_start: Ticks,
        window_end: Ticks,
        formula: str,
    ) -> None:
        super().__init__(name, formula, metric=True)
        self.items = list(items)
        self.predicate = predicate
        self.window_start = window_start
        self.window_end = window_end

    def windows(self, horizon: Ticks) -> list[Interval]:
        """The concrete daily windows within ``[0, horizon)``."""
        result: list[Interval] = []
        day = 0
        while day * DAY < horizon:
            start = day * DAY + self.window_start
            if self.window_end > self.window_start:
                end = day * DAY + self.window_end
            else:
                end = (day + 1) * DAY + self.window_end
            clipped = Interval(start, min(end, horizon))
            if not clipped.empty:
                result.append(clipped)
            day += 1
        return result

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        report = GuaranteeReport(self.name, valid=True)
        bad = _violation_intervals(trace, self.items, self.predicate)
        windows = self.windows(trace.horizon)
        violated_windows = 0
        for window in windows:
            report.checked_instances += 1
            overlap = bad.intersection(IntervalSet([window]))
            if overlap:
                violated_windows += 1
                report.valid = False
                first = next(iter(overlap))
                report.counterexamples.append(
                    f"window [{format_ticks(window.start)}, "
                    f"{format_ticks(window.end)}) violated from "
                    f"{format_ticks(first.start)}"
                )
        report.stats["windows_checked"] = len(windows)
        report.stats["windows_violated"] = violated_windows
        return report


class PeriodicCopyGuarantee(Guarantee):
    """A parameterized copy constraint valid during a daily window.

    The Section 6.4 banking scenario: for every account ``n``,
    ``balance1(n) = balance2(n)`` holds each day from (say) 17:15 to 08:00.
    Instantiation over ``n`` happens at check time from the trace, like the
    other parameterized guarantees.
    """

    def __init__(
        self,
        src_family: str,
        dst_family: str,
        window_start: Ticks,
        window_end: Ticks,
    ) -> None:
        self.src_family = src_family
        self.dst_family = dst_family
        self.window_start = window_start
        self.window_end = window_end
        formula = (
            f"({src_family}(n) = {dst_family}(n)) @@ daily "
            f"[{format_ticks(window_start)[3:]}, {format_ticks(window_end)[3:]}]"
        )
        super().__init__(
            f"periodic_copy({src_family} = {dst_family})", formula, metric=True
        )

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        from repro.core.guarantees.base import paired_refs

        report = GuaranteeReport(self.name, valid=True)
        for src_ref, dst_ref in paired_refs(
            trace, self.src_family, self.dst_family
        ):
            inner = PeriodicGuarantee(
                f"{self.name}[{src_ref}]",
                [src_ref, dst_ref],
                lambda state, s=src_ref, d=dst_ref: state[s] == state[d],
                self.window_start,
                self.window_end,
                self.formula,
            )
            pair_report = inner.check(trace)
            pair_report.guarantee = self.name
            report.merge(pair_report)
        return report


def invariant(
    name: str,
    items: list[DataItemRef],
    predicate: Predicate,
    formula: str = "",
) -> InvariantGuarantee:
    """Build an always-true invariant guarantee (e.g. ``X <= Y``)."""
    return InvariantGuarantee(name, items, predicate, formula or name)


def periodic(
    name: str,
    items: list[DataItemRef],
    predicate: Predicate,
    window_start: Ticks,
    window_end: Ticks,
    formula: str = "",
) -> PeriodicGuarantee:
    """Build a daily-window periodic guarantee (Section 6.4)."""
    return PeriodicGuarantee(
        name, items, predicate, window_start, window_end, formula or name
    )
