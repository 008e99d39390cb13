"""The weakened referential-integrity guarantee of Section 6.2.

The paper's example: every project record must have a salary record, but the
constraint "may be violated for any one employee ID for a period of at most
24 hours"::

    E(project(i))@t  =>  E(salary(i)) within [t, t + 86400]

Checking: for each parameter value ``i``, compute the time set where the
parent exists but the child does not; the guarantee holds iff every maximal
such violation window is no longer than the grace period.  A window still
open at the trace horizon and shorter than the grace period is inconclusive
(the cleanup may still happen in time).
"""

from __future__ import annotations

from repro.core.guarantees.base import Guarantee, GuaranteeReport
from repro.core.intervals import Interval, IntervalSet
from repro.core.items import DataItemRef
from repro.core.timebase import Ticks, format_ticks, to_seconds
from repro.core.trace import ExecutionTrace


def _existence_intervals(trace: ExecutionTrace, ref: DataItemRef) -> IntervalSet:
    """Times at which ``ref`` exists (value is not MISSING)."""
    return IntervalSet(Interval(s.start, s.end) for s in trace.timeline(ref).held())


class ReferentialGuarantee(Guarantee):
    """Existence dependency with a grace window, per parameter value."""

    def __init__(self, parent_family: str, child_family: str, grace: Ticks):
        self.parent_family = parent_family
        self.child_family = child_family
        self.grace = grace
        formula = (
            f"E({parent_family}(i))@t => E({child_family}(i))@@"
            f"[t, t + {to_seconds(grace):g}s]"
        )
        super().__init__(
            f"referential({parent_family} -> {child_family}, "
            f"grace={to_seconds(grace):g}s)",
            formula,
            metric=True,
        )

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        """Measure every violation window against the grace period."""
        report = GuaranteeReport(self.name, valid=True)
        arg_tuples: set[tuple] = set()
        for ref in trace.refs_of_family(self.parent_family):
            arg_tuples.add(ref.args)
        max_window: Ticks = 0
        for args in sorted(arg_tuples, key=lambda a: tuple(map(str, a))):
            report.checked_instances += 1
            parent = DataItemRef(self.parent_family, args)
            child = DataItemRef(self.child_family, args)
            violations = _existence_intervals(trace, parent).difference(
                _existence_intervals(trace, child)
            )
            for window in violations:
                open_at_horizon = window.end >= trace.horizon
                if window.length > self.grace:
                    report.valid = False
                    report.counterexamples.append(
                        f"{parent} dangled for {to_seconds(window.length):g}s "
                        f"from {format_ticks(window.start)} "
                        f"(> grace {to_seconds(self.grace):g}s)"
                    )
                elif open_at_horizon:
                    report.inconclusive += 1
                max_window = max(max_window, window.length)
        report.stats["max_violation_window_seconds"] = to_seconds(max_window)
        return report


def referential_within(
    parent_family: str, child_family: str, grace_seconds: float
) -> ReferentialGuarantee:
    """Build the Section 6.2 guarantee with a grace period in seconds."""
    from repro.core.timebase import seconds

    return ReferentialGuarantee(parent_family, child_family, seconds(grace_seconds))
