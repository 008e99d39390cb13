"""Small interval-set algebra used by the guarantee checker.

Guarantee checking over piecewise-constant state histories reduces to
operations on finite unions of half-open time intervals ``[start, end)``:
"the set of times at which Y = y", "the set of t1 for which some witness t2
exists", and so on.  :class:`IntervalSet` provides the needed operations.

All endpoints are integer ticks, so open/closed subtleties at real-valued
endpoints reduce to ±1 tick adjustments made explicit by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.timebase import Ticks


@dataclass(frozen=True)
class Interval:
    """A half-open interval ``[start, end)`` of virtual time."""

    start: Ticks
    end: Ticks

    @property
    def empty(self) -> bool:
        """Whether the interval contains no ticks."""
        return self.start >= self.end

    @property
    def length(self) -> Ticks:
        """Tick count covered (0 for empty intervals)."""
        return max(0, self.end - self.start)

    def contains(self, time: Ticks) -> bool:
        """Point membership (half-open)."""
        return self.start <= time < self.end

    def intersect(self, other: "Interval") -> "Interval":
        """The (possibly empty) overlap with another interval."""
        return Interval(max(self.start, other.start), min(self.end, other.end))

    def __str__(self) -> str:
        return f"[{self.start}, {self.end})"


def spans_cover(spans: list[tuple[Ticks, Ticks]], start: Ticks, end: Ticks) -> bool:
    """Whether the union of half-open ``(start, end)`` spans covers
    ``[start, end)`` — ``not IntervalSet(spans).uncovered(interval)`` as one
    sort and one sweep over plain tuples, with no set built.  Sorts ``spans``
    in place."""
    spans.sort()
    reach = start
    for span_start, span_end in spans:
        if reach >= end or span_start > reach:
            break
        if span_end > reach:
            reach = span_end
    return reach >= end


class IntervalSet:
    """A normalized (sorted, disjoint, non-empty) union of intervals."""

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals = self._normalize(intervals)

    @staticmethod
    def _normalize(intervals: Iterable[Interval]) -> list[Interval]:
        pending = sorted(
            (i for i in intervals if not i.empty), key=lambda i: (i.start, i.end)
        )
        merged: list[Interval] = []
        for interval in pending:
            if merged and interval.start <= merged[-1].end:
                if interval.end > merged[-1].end:
                    merged[-1] = Interval(merged[-1].start, interval.end)
            else:
                merged.append(interval)
        return merged

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __repr__(self) -> str:
        inner = ", ".join(str(i) for i in self._intervals)
        return f"IntervalSet({inner})"

    @property
    def total_length(self) -> Ticks:
        """Sum of the member intervals' lengths."""
        return sum(i.length for i in self._intervals)

    def contains(self, time: Ticks) -> bool:
        """Point membership."""
        return any(i.contains(time) for i in self._intervals)

    def covers(self, interval: Interval) -> bool:
        """Whether a single interval is fully inside this set."""
        if interval.empty:
            return True
        for candidate in self._intervals:
            if candidate.start <= interval.start and interval.end <= candidate.end:
                return True
        return False

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union."""
        return IntervalSet(list(self._intervals) + list(other._intervals))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection."""
        result: list[Interval] = []
        for a in self._intervals:
            for b in other._intervals:
                piece = a.intersect(b)
                if not piece.empty:
                    result.append(piece)
        return IntervalSet(result)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """This set minus ``other``."""
        result: list[Interval] = []
        for interval in self._intervals:
            pieces = [interval]
            for cut in other._intervals:
                next_pieces: list[Interval] = []
                for piece in pieces:
                    if cut.end <= piece.start or cut.start >= piece.end:
                        next_pieces.append(piece)
                        continue
                    if cut.start > piece.start:
                        next_pieces.append(Interval(piece.start, cut.start))
                    if cut.end < piece.end:
                        next_pieces.append(Interval(cut.end, piece.end))
                pieces = next_pieces
            result.extend(pieces)
        return IntervalSet(result)

    def uncovered(self, interval: Interval) -> "IntervalSet":
        """The part of ``interval`` not covered by this set."""
        return IntervalSet([interval]).difference(self)
