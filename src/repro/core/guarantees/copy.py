"""The copy-constraint guarantee family of Section 3.3.1.

Given a copy constraint ``X = Y`` with ``X`` the primary:

- guarantee (1), *Y follows X*::

      (Y = y)@t1  =>  (X = y)@t2 ∧ (t2 < t1)

- guarantee (2), *X leads Y*::

      (X = x)@t1  =>  (Y = x)@t2 ∧ (t2 > t1)

- guarantee (3), *Y strictly follows X*::

      (Y = y1)@t1 ∧ (Y = y2)@t2 ∧ (t1 < t2)
          =>  (X = y1)@t3 ∧ (X = y2)@t4 ∧ (t3 < t4)

- guarantee (4), the metric form of (1)::

      (Y = y)@t1  =>  (X = y)@t2 ∧ (t1 - κ < t2 < t1)

Checking is exact over the piecewise-constant timelines the trace provides:
each maximal constant segment of a timeline is one family of universally
quantified instantiations, and witness existence reduces to interval
coverage (:func:`repro.core.intervals.spans_cover`).  The guarantees issued
over one family pairing are checked together (:func:`check_copy_family`):
per instance, one walk of Y's segments answers (1), (3) and (4) and one walk
of X's answers (2), against X's by-value grouping, which the timeline derives
once and remembers.  Each report also records the tick intervals during
which its counterexamples hold (``violated_during``).

Two boundary conventions, both documented behaviours:

- **Seeded origins.**  Values both items hold at time 0 (database initial
  loads) are treated as held "since before the trace", so a seeded agreement
  does not violate the strict ``t2 < t1`` requirement.
- **Open obligations.**  An obligation whose witness may still legitimately
  arrive after the end of the run (e.g. "X leads Y" for a value X acquired
  just before the horizon) is counted as *inconclusive*, not as a violation.
  The ``horizon_slack`` parameter sets how close to the horizon an obligation
  must be to be excused; for metric variants the bound itself is used.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.guarantees.base import Guarantee, GuaranteeReport, paired_timelines
from repro.core.intervals import Interval, IntervalSet, spans_cover
from repro.core.timebase import Ticks, to_seconds
from repro.core.trace import ExecutionTrace, TimelineSegment


class CopyGuarantee(Guarantee):
    """A guarantee over the histories of a copy constraint's X and Y,
    checked by :func:`check_copy_family` — alone, or with the others issued
    over the same family pairing."""

    x_family: str
    y_family: str

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        return check_copy_family(trace, [self])[0]


class FollowsGuarantee(CopyGuarantee):
    """Guarantee (1) "Y follows X", or its metric form (4) when ``within``
    is given: Y never holds a value X did not previously hold (within κ)."""

    def __init__(
        self, x_family: str, y_family: str, within: Ticks | None = None
    ) -> None:
        self.x_family = x_family
        self.y_family = y_family
        self.within = within
        if within is None:
            formula = (
                f"({y_family} = y)@t1 => ({x_family} = y)@t2 ∧ (t2 < t1)"
            )
            name = f"follows({x_family} -> {y_family})"
        else:
            formula = (
                f"({y_family} = y)@t1 => ({x_family} = y)@t2 "
                f"∧ (t1 - {to_seconds(within):g}s < t2 < t1)"
            )
            name = f"follows({x_family} -> {y_family}, κ={to_seconds(within):g}s)"
        super().__init__(name, formula, metric=within is not None)

    @staticmethod
    def _judge_nonmetric(
        segment: TimelineSegment, witnesses: Sequence[TimelineSegment]
    ) -> tuple[Ticks | None, list[Interval] | None]:
        """``(lag, None)`` for a witnessed segment, else ``(None, where)``."""
        start = segment.start
        best_lag: Ticks | None = None
        for witness in witnesses:
            # Strictly before, or both held since time 0 (seeded origin).
            if witness.start < start or witness.start == start == 0:
                lag = start - witness.start
                if best_lag is None or lag < best_lag:
                    best_lag = lag
        if best_lag is not None:
            return best_lag, None
        # Each witness starts at or after ``start``: past the first, t1 has t2.
        end = min([segment.end] + [w.start + 1 for w in witnesses])
        return None, [Interval(start, end)]

    def _judge_metric(
        self, segment: TimelineSegment, witnesses: Sequence[TimelineSegment]
    ) -> tuple[Ticks | None, list[Interval] | None]:
        # t2 must satisfy t1 - κ < t2 < t1 with t2 in [c, d); such a t2
        # exists iff c + 1 <= t1 <= d + κ - 2, i.e. t1 in [c+1, d+κ-1).
        # A witness held since time 0 also covers t1 = 0 (seeded origin).
        slack = self.within - 1
        start = segment.start
        best_lag: Ticks | None = None
        allowed = []
        for w in witnesses:
            allowed.append((w.start + 1 if w.start > 0 else 0, w.end + slack))
            if w.start <= start and (best_lag is None or start - w.start < best_lag):
                best_lag = start - w.start
        if spans_cover(allowed, start, segment.end):
            return best_lag, None
        return None, _uncovered(allowed, start, segment.end)


class LeadsGuarantee(CopyGuarantee):
    """Guarantee (2) "X leads Y": no value taken by X is missed by Y.

    With ``within``, additionally requires Y to take the value within κ of
    *every* instant at which X holds it.  A missed obligation raised at t1
    is violated once its grace has run out, at t1 + κ - 1 (the plain form:
    t1 + ``horizon_slack`` - 1, the grace the horizon gives it), and its
    ``violated_during`` is dated so.
    """

    def __init__(
        self,
        x_family: str,
        y_family: str,
        within: Ticks | None = None,
        horizon_slack: Ticks = 0,
    ) -> None:
        self.x_family = x_family
        self.y_family = y_family
        self.within = within
        self.horizon_slack = horizon_slack
        if within is None:
            formula = (
                f"({x_family} = x)@t1 => ({y_family} = x)@t2 ∧ (t2 > t1)"
            )
            name = f"leads({x_family} -> {y_family})"
        else:
            formula = (
                f"({x_family} = x)@t1 => ({y_family} = x)@t2 "
                f"∧ (t1 < t2 < t1 + {to_seconds(within):g}s)"
            )
            name = f"leads({x_family} -> {y_family}, κ={to_seconds(within):g}s)"
        super().__init__(name, formula, metric=within is not None)

    def _judge_nonmetric(
        self,
        segment: TimelineSegment,
        witnesses: Sequence[TimelineSegment],
        horizon: Ticks,
    ) -> tuple[str, object]:
        """``("ok", delay)``, ``("inconclusive", None)`` or ``("violated",
        where)``."""
        # A witness interval [e, f) provides t2 > t1 for every t1 < f - 1; a
        # witness still live at the horizon covers every t1 (the value remains
        # reflected).  Obligations t1 within horizon_slack of the horizon are
        # inconclusive: their witness could still legally arrive after the run.
        covered_until: Ticks = 0
        delay: Ticks | None = None
        for witness in witnesses:
            extent = (
                segment.end if witness.end >= horizon else witness.end - 1
            )
            if extent > covered_until:
                covered_until = extent
                delay = max(0, witness.start - segment.start)
        due_end = min(segment.end, horizon - self.horizon_slack + 1)
        if covered_until >= due_end:
            return "ok", delay
        if due_end <= segment.start:
            return "inconclusive", None
        late = max(self.horizon_slack - 1, 0)
        first = max(segment.start, covered_until)
        return "violated", [Interval(first + late, due_end + late)]

    def _judge_metric(
        self,
        segment: TimelineSegment,
        witnesses: Sequence[TimelineSegment],
        horizon: Ticks,
    ) -> tuple[str, object]:
        # Obligations due strictly within the horizon only.
        due_end = min(segment.end, horizon - self.within + 1)
        if due_end <= segment.start:
            return "inconclusive", None
        # t2 in [e, f) with t1 < t2 < t1 + κ exists iff
        # e - κ < t1 < f - 1  =>  valid t1 set [e - κ + 1, f - 1).
        reach = self.within - 1
        allowed = [(max(0, w.start - reach), w.end - 1) for w in witnesses]
        if not spans_cover(allowed, segment.start, due_end):
            return "violated", _uncovered(allowed, segment.start, due_end, reach)
        delays = [max(0, w.start - segment.start) for w in witnesses]
        return "ok", min(delays, default=0)


class StrictlyFollowsGuarantee(CopyGuarantee):
    """Guarantee (3) "Y strictly follows X": Y sees X's values in X's order.

    Decided per instance by one scan when Y's values are distinct and all
    witnessed (:func:`check_copy_family`), else by :meth:`_every_pair`.
    """

    def __init__(self, x_family: str, y_family: str) -> None:
        self.x_family = x_family
        self.y_family = y_family
        formula = (
            f"({y_family} = y1)@t1 ∧ ({y_family} = y2)@t2 ∧ (t1 < t2) => "
            f"({x_family} = y1)@t3 ∧ ({x_family} = y2)@t4 ∧ (t3 < t4)"
        )
        super().__init__(
            f"strictly_follows({x_family} -> {y_family})", formula, metric=False
        )

    def _every_pair(self, report, x_ref, y_ref, y_segments, witnesses_of) -> int:
        """Check each distinct value pair of one instance's Y segments, in
        order; returns how many."""
        checked: set[tuple[object, object]] = set()
        failed: set[tuple[object, object]] = set()
        for index, earlier in enumerate(y_segments):
            for later in y_segments[index:]:
                if later is earlier and later.length < 2:
                    continue  # no two distinct instants in a 1-tick segment
                # Violated from the first instant of ``later`` after ``earlier``.
                where = Interval(later.start + (later is earlier), later.end)
                pair = (earlier.value, later.value)
                if pair in checked:
                    if pair in failed:
                        report.violated_during.append(where)
                    continue
                checked.add(pair)
                # t3 in an X=y1 segment and t4 > t3 in an X=y2 segment exist
                # iff the earliest moment X held y1 precedes the last moment
                # X held y2 (half-open intervals).
                first, last = witnesses_of(pair[0]), witnesses_of(pair[1])
                if not (first and last and first[0].start < last[-1].end - 1):
                    failed.add(pair)
                    report.valid = False
                    report.counterexamples.append(
                        f"{y_ref} held {earlier.value!r} then "
                        f"{later.value!r} but {x_ref} never held them in "
                        f"that order"
                    )
                    report.violated_during.append(where)
        return len(checked)


def check_copy_family(
    trace: ExecutionTrace, guarantees: Sequence[CopyGuarantee]
) -> list[GuaranteeReport]:
    """The reports of copy-family guarantees issued over one ``(x_family,
    y_family)`` pairing, in order.

    Per instance, one walk of Y's held segments answers every follows and
    strictly-follows guarantee, one walk of X's every leads.  Y's values are
    looked up in X's by-value grouping (:meth:`~repro.core.trace.Timeline.by_value`,
    remembered, so every constraint copying X shares it); a value's first
    start and last end are its first and last segment's.  A guarantee's own
    :meth:`~CopyGuarantee.check` is this routine over that guarantee alone.
    """
    x_family, y_family = guarantees[0].x_family, guarantees[0].y_family
    reports = [GuaranteeReport(g.name, valid=True) for g in guarantees]
    follows = []  # (guarantee, judge, report, [max lag, unused])
    strict = []  # (guarantee, report, [ordered pairs])
    leads = []  # (guarantee, judge, report, [missed, max delay])
    for g, report in zip(guarantees, reports):
        if isinstance(g, StrictlyFollowsGuarantee):
            strict.append((g, report, [0]))
        else:
            judge = g._judge_nonmetric if g.within is None else g._judge_metric
            kept = follows if isinstance(g, FollowsGuarantee) else leads
            kept.append((g, judge, report, [0, 0]))
    horizon, taken, exempt = trace.horizon, 0, 0
    for x_ref, y_ref, x_timeline, y_timeline in paired_timelines(
        trace, x_family, y_family
    ):
        for report in reports:
            report.checked_instances += 1
        grouped = x_timeline.by_value()  # derived once per timeline
        y_by_value = None  # Y's segments by value, for leads, if hashable
        if follows or strict:
            y_segments, y_by_value = y_timeline.held(), {}
            # The one-scan strictly-follows state: a pair (earlier, later)
            # holds iff the largest first start so far is < last_end - 1.
            latest_first, seen, pairs, scanning = -1, set(), 0, bool(strict)
            for segment in y_segments:
                value = segment.value
                try:
                    witnesses = grouped.get(value, ())
                    y_by_value.setdefault(value, []).append(segment)
                except (AttributeError, TypeError):  # unhashable, or X's: scan
                    witnesses, y_by_value = x_timeline.held_with(value), None
                one = len(witnesses) == 1  # the common case, judged inline
                if one:
                    (w_start, w_end, __), start = witnesses[0], segment.start
                for guarantee, judge, report, max_lag in follows:
                    # It starts first or both at 0 (seeded); metric, [start
                    # + 1 (0: seeded), end + κ - 1) covers the segment.
                    within = guarantee.within
                    if one and (
                        w_start < start or w_start == 0 == start if within is None
                        else (w_start < start or w_start == 0)
                        and w_end + within > segment.end
                    ):
                        max_lag[0] = max(max_lag[0], start - w_start)
                        continue
                    lag, violated = judge(segment, witnesses)
                    if violated is not None:
                        report.valid = False
                        report.counterexamples.append(
                            f"{y_ref} held {value!r} during "
                            f"[{segment.start}, {segment.end}) without a prior "
                            f"{'(recent enough) ' if guarantee.within else ''}"
                            f"{x_ref} = {value!r}"
                        )
                        report.violated_during += violated
                    elif lag is not None and lag > max_lag[0]:
                        max_lag[0] = lag
                if scanning:
                    if not witnesses or value in seen:
                        scanning = False
                        continue
                    seen.add(value)
                    first, reach = witnesses[0].start, witnesses[-1].end - 1
                    spans_two = segment.end - segment.start >= 2
                    if latest_first >= reach or (spans_two and first >= reach):
                        scanning = False
                        continue
                    pairs += spans_two
                    latest_first = max(latest_first, first)
            for guarantee, report, checked in strict:
                if scanning:
                    checked[0] += pairs + len(seen) * (len(seen) - 1) // 2
                else:
                    checked[0] += guarantee._every_pair(
                        report, x_ref, y_ref, y_segments, x_timeline.held_with
                    )
        if leads:
            for segment in x_timeline.held():
                if segment.start == 0:
                    # A value held since time 0 predates constraint
                    # management (a seeded initial load); "X leads Y"
                    # quantifies over the values X *takes* during the
                    # managed execution.  Notify-based strategies only see
                    # changes, so prior history is exempt — mirroring the
                    # seeded-origin rule in `follows`.
                    exempt += 1
                    continue
                taken += 1
                witnesses = (
                    y_timeline.held_with(segment.value) if y_by_value is None
                    else y_by_value.get(segment.value, ())
                )
                for guarantee, judge, report, counts in leads:
                    verdict, found = judge(segment, witnesses, horizon)
                    if verdict == "violated":
                        counts[0] += 1
                        report.valid = False
                        report.counterexamples.append(
                            f"{x_ref} took {segment.value!r} at {segment.start}"
                            f" but {y_ref} never"
                            f"{' (in time)' if guarantee.within else ''}"
                            " reflected it"
                        )
                        report.violated_during += found
                    elif verdict == "inconclusive":
                        report.inconclusive += 1
                    elif found is not None and found > counts[1]:
                        counts[1] = found
    for __, __, report, (max_lag, __) in follows:
        report.stats["max_lag_ticks"] = max_lag
        report.stats["max_lag_seconds"] = to_seconds(max_lag)
    for __, report, (ordered_pairs,) in strict:
        report.stats["ordered_pairs_checked"] = ordered_pairs
    for __, __, report, (missed, max_delay) in leads:
        report.stats["values_taken"] = taken
        report.stats["values_missed"] = missed
        report.stats["values_exempt_seeded"] = exempt
        report.stats["max_propagation_delay_ticks"] = max_delay
        report.stats["max_propagation_delay_seconds"] = to_seconds(max_delay)
    return reports


def _uncovered(spans: list, start: Ticks, end: Ticks, late: Ticks = 0) -> list:
    """The parts of ``[start, end)`` no ``(start, end)`` span covers, as
    intervals ``late`` ticks on."""
    covered = IntervalSet(Interval(*span) for span in spans)
    gaps = covered.uncovered(Interval(start, end))
    return [Interval(gap.start + late, gap.end + late) for gap in gaps]


def follows(
    x_family: str, y_family: str, within_seconds: float | None = None
) -> FollowsGuarantee:
    """Guarantee (1), or the metric guarantee (4) when ``within_seconds``."""
    from repro.core.timebase import seconds

    within = seconds(within_seconds) if within_seconds is not None else None
    return FollowsGuarantee(x_family, y_family, within)


def leads(
    x_family: str,
    y_family: str,
    within_seconds: float | None = None,
    horizon_slack_seconds: float = 0.0,
) -> LeadsGuarantee:
    """Guarantee (2), optionally with a metric bound."""
    from repro.core.timebase import seconds

    within = seconds(within_seconds) if within_seconds is not None else None
    return LeadsGuarantee(
        x_family, y_family, within, seconds(horizon_slack_seconds)
    )


def strictly_follows(x_family: str, y_family: str) -> StrictlyFollowsGuarantee:
    """Guarantee (3)."""
    return StrictlyFollowsGuarantee(x_family, y_family)
