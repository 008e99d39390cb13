"""The monitoring guarantee of Section 6.3.

When the CM can observe but not update ``X`` and ``Y``, the best it can do is
*monitor* the copy constraint, maintaining auxiliary data items at the
application's site: a boolean ``Flag`` and a timestamp ``Tb`` recording the
start of the current agreement interval.  The offered guarantee is::

    ((Flag = true) ∧ (Tb = s))@t  =>  (X = Y)@@[s, t - κ]

i.e. whenever an application reads ``Flag = true`` and ``Tb = s``, the
constraint really did hold throughout ``[s, t - κ]``, where κ absorbs the
notification delays.  This module checks the guarantee's **soundness** over a
trace: for every instant at which Flag was true, the claimed interval must
contain no disagreement.
"""

from __future__ import annotations

from repro.core.guarantees.base import Guarantee, GuaranteeReport
from repro.core.items import MISSING, DataItemRef
from repro.core.timebase import Ticks, format_ticks, to_seconds
from repro.core.trace import ExecutionTrace


class MonitorGuarantee(Guarantee):
    """Soundness of the Flag/Tb monitoring auxiliary data."""

    def __init__(
        self,
        x_ref: DataItemRef,
        y_ref: DataItemRef,
        flag_ref: DataItemRef,
        tb_ref: DataItemRef,
        kappa: Ticks,
        start_margin: Ticks = 0,
    ) -> None:
        self.x_ref = x_ref
        self.y_ref = y_ref
        self.flag_ref = flag_ref
        self.tb_ref = tb_ref
        self.kappa = kappa
        #: Margin added to the interval's *start*: the claim becomes
        #: ``[s + start_margin, t - κ]``.  κ absorbs notification delays at
        #: the right end; the start margin absorbs clock skew in the Tb
        #: stamp (Section 7.2: "a clock skew of a few seconds ... can be
        #: accommodated by including an error margin in the interval").
        self.start_margin = start_margin
        margin = (
            f" + {to_seconds(start_margin):g}s" if start_margin else ""
        )
        formula = (
            f"(({flag_ref} = true) ∧ ({tb_ref} = s))@t => "
            f"({x_ref} = {y_ref})@@[s{margin}, t - {to_seconds(kappa):g}s]"
        )
        super().__init__(
            f"monitor({x_ref} = {y_ref}, κ={to_seconds(kappa):g}s"
            + (f", start+{to_seconds(start_margin):g}s" if start_margin else "")
            + ")",
            formula,
            metric=True,
        )

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        """Evaluate soundness of every Flag=true claim in the trace."""
        report = GuaranteeReport(self.name, valid=True, checked_instances=0)
        flag_timeline = trace.timeline(self.flag_ref)
        tb_timeline = trace.timeline(self.tb_ref)
        covered: Ticks = 0
        for flag_segment in flag_timeline.segments():
            if flag_segment.value is not True:
                continue
            # Sub-divide by Tb changes within the Flag=true segment so each
            # (t, s) instantiation family has a constant s.
            boundaries = {flag_segment.start, flag_segment.end}
            for time in tb_timeline.change_times():
                if flag_segment.start < time < flag_segment.end:
                    boundaries.add(time)
            ordered = sorted(boundaries)
            for start, end in zip(ordered, ordered[1:]):
                s_value = tb_timeline.value_at(start)
                if s_value is MISSING:
                    report.valid = False
                    report.counterexamples.append(
                        f"Flag true at {format_ticks(start)} but Tb unset"
                    )
                    continue
                report.checked_instances += 1
                # The strongest claim in this sub-segment is made by the
                # largest t, i.e. end - 1: the interval [s, end - 1 - κ].
                claim_end = end - 1 - self.kappa
                disagreement = self._first_disagreement(
                    trace, int(s_value) + self.start_margin, claim_end
                )
                if disagreement is not None:
                    report.valid = False
                    report.counterexamples.append(
                        f"Flag claimed {self.x_ref} = {self.y_ref} over "
                        f"[{format_ticks(int(s_value))}, "
                        f"{format_ticks(claim_end)}] but they differed at "
                        f"{format_ticks(disagreement)}"
                    )
                else:
                    covered += max(0, claim_end - int(s_value))
        report.stats["covered_seconds"] = to_seconds(covered)
        horizon = max(trace.horizon, 1)
        report.stats["coverage_fraction"] = covered / horizon
        return report

    def _first_disagreement(
        self, trace: ExecutionTrace, start: Ticks, end: Ticks
    ) -> Ticks | None:
        """Earliest time in ``[start, end]`` at which X != Y, else None."""
        if start > end:
            return None  # vacuous claim
        points = {start}
        for time in trace.timeline(self.x_ref).change_times():
            if start < time <= end:
                points.add(time)
        for time in trace.timeline(self.y_ref).change_times():
            if start < time <= end:
                points.add(time)
        for time in sorted(points):
            if trace.value_at(self.x_ref, time) != trace.value_at(
                self.y_ref, time
            ):
                return time
        return None


def monitor_window(
    x_ref: DataItemRef,
    y_ref: DataItemRef,
    flag_ref: DataItemRef,
    tb_ref: DataItemRef,
    kappa_seconds: float,
) -> MonitorGuarantee:
    """Build the Section 6.3 monitoring guarantee with κ in seconds."""
    from repro.core.timebase import seconds

    return MonitorGuarantee(x_ref, y_ref, flag_ref, tb_ref, seconds(kappa_seconds))
