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
coverage (:func:`repro.core.intervals.spans_cover`).  A check reads each
history once: the family pairing and its timelines are fetched once per
trace state (:func:`~repro.core.guarantees.base.paired_timelines`), every
timeline hands out the segments it derived the first time it was asked, and
one report accumulates over all instances.

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
from repro.core.intervals import spans_cover
from repro.core.timebase import Ticks, to_seconds
from repro.core.trace import ExecutionTrace, TimelineSegment


class FollowsGuarantee(Guarantee):
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

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        report = GuaranteeReport(self.name, valid=True)
        check = self._check_nonmetric if self.within is None else self._check_metric
        max_lag: Ticks = 0
        for x_ref, y_ref, x_timeline, y_timeline in paired_timelines(
            trace, self.x_family, self.y_family
        ):
            report.checked_instances += 1
            for segment in y_timeline.held():
                ok, lag = check(segment, x_timeline.held_with(segment.value))
                if not ok:
                    report.valid = False
                    report.counterexamples.append(
                        f"{y_ref} held {segment.value!r} during "
                        f"[{segment.start}, {segment.end}) without a prior "
                        f"{'(recent enough) ' if self.within else ''}"
                        f"{x_ref} = {segment.value!r}"
                    )
                elif lag is not None and lag > max_lag:
                    max_lag = lag
        report.stats["max_lag_ticks"] = max_lag
        report.stats["max_lag_seconds"] = to_seconds(max_lag)
        return report

    def _check_nonmetric(
        self, segment: TimelineSegment, witnesses: Sequence[TimelineSegment]
    ) -> tuple[bool, Ticks | None]:
        best_lag: Ticks | None = None
        for witness in witnesses:
            strictly_before = witness.start < segment.start
            seeded_origin = witness.start == 0 and segment.start == 0
            if strictly_before or seeded_origin:
                lag = segment.start - witness.start
                if best_lag is None or lag < best_lag:
                    best_lag = lag
        return best_lag is not None, best_lag

    def _check_metric(
        self, segment: TimelineSegment, witnesses: Sequence[TimelineSegment]
    ) -> tuple[bool, Ticks | None]:
        assert self.within is not None
        # t2 must satisfy t1 - κ < t2 < t1 with t2 in [c, d); such a t2
        # exists iff c + 1 <= t1 <= d + κ - 2, i.e. t1 in [c+1, d+κ-1).
        # A witness held since time 0 also covers t1 = 0 (seeded origin).
        slack = self.within - 1
        allowed = [
            (w.start + 1 if w.start > 0 else 0, w.end + slack) for w in witnesses
        ]
        if not spans_cover(allowed, segment.start, segment.end):
            return False, None
        best_lag = min(
            (segment.start - w.start for w in witnesses
             if w.start <= segment.start),
            default=None,
        )
        return True, best_lag


class LeadsGuarantee(Guarantee):
    """Guarantee (2) "X leads Y": no value taken by X is missed by Y.

    With ``within``, additionally requires Y to take the value within κ of
    *every* instant at which X holds it.
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

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        report = GuaranteeReport(self.name, valid=True)
        check = self._check_nonmetric if self.within is None else self._check_metric
        horizon = trace.horizon
        missed = 0
        total = 0
        exempt = 0
        max_delay: Ticks = 0
        for x_ref, y_ref, x_timeline, y_timeline in paired_timelines(
            trace, self.x_family, self.y_family
        ):
            report.checked_instances += 1
            for segment in x_timeline.held():
                if segment.start == 0:
                    # A value held since time 0 predates constraint
                    # management (a seeded initial load); "X leads Y"
                    # quantifies over the values X *takes* during the managed
                    # execution.  Notify-based strategies only see changes,
                    # so prior history is exempt — mirroring the
                    # seeded-origin rule in `follows`.
                    exempt += 1
                    continue
                total += 1
                verdict, delay = check(
                    segment, y_timeline.held_with(segment.value), horizon
                )
                if verdict == "violated":
                    missed += 1
                    report.valid = False
                    report.counterexamples.append(
                        f"{x_ref} took {segment.value!r} at {segment.start} but "
                        f"{y_ref} never{' (in time)' if self.within else ''} "
                        f"reflected it"
                    )
                elif verdict == "inconclusive":
                    report.inconclusive += 1
                elif delay is not None and delay > max_delay:
                    max_delay = delay
        report.stats["values_taken"] = total
        report.stats["values_missed"] = missed
        report.stats["values_exempt_seeded"] = exempt
        report.stats["max_propagation_delay_ticks"] = max_delay
        report.stats["max_propagation_delay_seconds"] = to_seconds(max_delay)
        return report

    def _check_nonmetric(
        self,
        segment: TimelineSegment,
        witnesses: Sequence[TimelineSegment],
        horizon: Ticks,
    ) -> tuple[str, Ticks | None]:
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
        return "violated", None

    def _check_metric(
        self,
        segment: TimelineSegment,
        witnesses: Sequence[TimelineSegment],
        horizon: Ticks,
    ) -> tuple[str, Ticks | None]:
        assert self.within is not None
        # Obligations due strictly within the horizon only.
        due_end = min(segment.end, horizon - self.within + 1)
        if due_end <= segment.start:
            return "inconclusive", None
        # t2 in [e, f) with t1 < t2 < t1 + κ exists iff
        # e - κ < t1 < f - 1  =>  valid t1 set [e - κ + 1, f - 1).
        reach = self.within - 1
        allowed = [(max(0, w.start - reach), w.end - 1) for w in witnesses]
        if not spans_cover(allowed, segment.start, due_end):
            return "violated", None
        delay = min(
            (max(0, w.start - segment.start) for w in witnesses),
            default=0,
        )
        return "ok", delay


class StrictlyFollowsGuarantee(Guarantee):
    """Guarantee (3) "Y strictly follows X": Y sees X's values in X's order."""

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

    def check(self, trace: ExecutionTrace) -> GuaranteeReport:
        report = GuaranteeReport(self.name, valid=True)
        ordered_pairs = 0
        for x_ref, y_ref, x_timeline, y_timeline in paired_timelines(
            trace, self.x_family, self.y_family
        ):
            report.checked_instances += 1
            first_start: dict[object, Ticks] = {}
            last_end: dict[object, Ticks] = {}
            for segment in x_timeline.held():
                key = segment.value
                if key not in first_start:
                    first_start[key] = segment.start
                last_end[key] = max(last_end.get(key, 0), segment.end)
            y_segments = y_timeline.held()
            pairs = self._ordered_pairs(y_segments, first_start, last_end)
            if pairs is not None:
                ordered_pairs += pairs
                continue
            checked_pairs: set[tuple[object, object]] = set()
            for index, earlier in enumerate(y_segments):
                for later in y_segments[index:]:
                    if later is earlier and later.length < 2:
                        continue  # no two distinct instants in a 1-tick segment
                    pair = (earlier.value, later.value)
                    if pair in checked_pairs:
                        continue
                    checked_pairs.add(pair)
                    if not self._witness_order(
                        earlier.value, later.value, first_start, last_end
                    ):
                        report.valid = False
                        report.counterexamples.append(
                            f"{y_ref} held {earlier.value!r} then "
                            f"{later.value!r} but {x_ref} never held them in "
                            f"that order"
                        )
            ordered_pairs += len(checked_pairs)
        report.stats["ordered_pairs_checked"] = ordered_pairs
        return report

    @staticmethod
    def _ordered_pairs(
        y_segments: Sequence[TimelineSegment],
        first_start: dict[object, Ticks],
        last_end: dict[object, Ticks],
    ) -> int | None:
        """The ordered pairs of an instance whose Y values are distinct,
        held by X and in X's order, counted in one scan (else ``None``): a
        pair (earlier, later) holds iff ``first_start[earlier] <
        last_end[later] - 1``, so every earlier segment is answered by the
        running maximum of ``first_start``.  A segment of two or more
        instants pairs with itself."""
        latest_first, seen, pairs = -1, set(), 0
        for segment in y_segments:
            value = segment.value
            first = first_start.get(value)
            if first is None or value in seen:
                return None
            seen.add(value)
            reach = last_end[value] - 1
            spans_two = segment.end - segment.start >= 2
            if latest_first >= reach or (spans_two and first >= reach):
                return None
            pairs += spans_two
            latest_first = max(latest_first, first)
        return pairs + len(seen) * (len(seen) - 1) // 2

    @staticmethod
    def _witness_order(
        y1: object,
        y2: object,
        first_start: dict[object, Ticks],
        last_end: dict[object, Ticks],
    ) -> bool:
        if y1 not in first_start or y2 not in first_start:
            return False
        # t3 in an X=y1 segment and t4 > t3 in an X=y2 segment exist iff the
        # earliest moment X held y1 (first_start[y1]) precedes the last moment
        # X held y2 (last_end[y2] - 1, half-open intervals).
        return first_start[y1] < last_end[y2] - 1


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
