"""Guarantees for decomposed arithmetic constraints (Section 7.1).

The paper manages ``X = Y + Z`` by caching ``Yc``/``Zc`` at X's site and
splitting the constraint into distributed copies plus the local constraint
``X = Yc + Zc``.  The per-operand copies reuse the Section 3.3.1 guarantee
family; the local residue gets :class:`SumFollowsGuarantee`: the metric-
follows statement against the *derived sum timeline*::

    (X = v)@t1  =>  (Yc + Zc = v)@t2 ∧ (t1 - κ < t2 < t1)

i.e. X only ever holds values the cache sum held recently.  (The honest
target is the cache sum, not ``Y + Z`` directly: with independent
propagation delays, mixed cache states can transiently form sums that the
remote pair never held simultaneously — the decomposition's documented
weakening.)
"""

from __future__ import annotations

from repro.core.guarantees.base import Guarantee, GuaranteeReport
from repro.core.intervals import spans_cover
from repro.core.items import MISSING, DataItemRef
from repro.core.timebase import Ticks, to_seconds
from repro.core.trace import ExecutionTrace, Timeline


def sum_timeline(trace: ExecutionTrace, refs: list[DataItemRef]) -> Timeline:
    """The pointwise sum of several item timelines.

    The sum is MISSING wherever any operand is MISSING (before all caches
    are populated).
    """
    timelines = [trace.timeline(ref) for ref in refs]
    points: set[Ticks] = {0}
    for timeline in timelines:
        for time in timeline.change_times():
            points.add(time)
    changes: list[tuple[Ticks, object]] = []
    for time in sorted(points):
        values = [t.value_at(time) for t in timelines]
        if any(v is MISSING for v in values):
            changes.append((time, MISSING))
        else:
            changes.append((time, sum(values)))
    return Timeline(changes, trace.horizon)


class SumFollowsGuarantee(Guarantee):
    """Metric follows of a target item against the sum of its operands."""

    def __init__(
        self,
        target_ref: DataItemRef,
        operand_refs: list[DataItemRef],
        within: Ticks,
    ) -> None:
        self.target_ref = target_ref
        self.operand_refs = list(operand_refs)
        self.within = within
        operands = " + ".join(str(r) for r in operand_refs)
        formula = (
            f"({target_ref} = v)@t1 => ({operands} = v)@t2 "
            f"∧ (t1 - {to_seconds(within):g}s < t2 < t1)"
        )
        super().__init__(
            f"sum_follows({target_ref} = {operands}, "
            f"κ={to_seconds(within):g}s)",
            formula,
            metric=True,
        )

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        """Evaluate the guarantee over a recorded trace."""
        report = GuaranteeReport(self.name, valid=True, checked_instances=1)
        target = trace.timeline(self.target_ref)
        source = sum_timeline(trace, self.operand_refs)
        slack = self.within - 1
        for segment in target.held():
            allowed = [
                (w.start + 1 if w.start > 0 else 0, w.end + slack)
                for w in source.held_with(segment.value)
            ]
            if not spans_cover(allowed, segment.start, segment.end):
                report.valid = False
                report.counterexamples.append(
                    f"{self.target_ref} held {segment.value!r} during "
                    f"[{segment.start}, {segment.end}) without the operand "
                    f"sum matching recently enough"
                )
        return report
