"""Unit and property-based tests for the interval-set algebra."""

from hypothesis import given, strategies as st

from repro.core.intervals import Interval, IntervalSet, spans_cover


def interval_strategy(max_value: int = 200):
    return st.tuples(
        st.integers(0, max_value), st.integers(0, max_value)
    ).map(lambda pair: Interval(min(pair), max(pair)))


def interval_set_strategy():
    return st.lists(interval_strategy(), max_size=8).map(IntervalSet)


class TestInterval:
    def test_empty(self):
        assert Interval(5, 5).empty
        assert Interval(6, 5).empty
        assert not Interval(5, 6).empty

    def test_contains_half_open(self):
        interval = Interval(10, 20)
        assert interval.contains(10)
        assert interval.contains(19)
        assert not interval.contains(20)

    def test_intersect(self):
        assert Interval(0, 10).intersect(Interval(5, 15)) == Interval(5, 10)


class TestNormalization:
    def test_merges_overlaps_and_abutting(self):
        merged = IntervalSet([Interval(0, 5), Interval(5, 10), Interval(3, 7)])
        assert list(merged) == [Interval(0, 10)]

    def test_drops_empty(self):
        assert not IntervalSet([Interval(5, 5)])

    def test_sorted_disjoint(self):
        intervals = list(IntervalSet([Interval(20, 30), Interval(0, 10)]))
        assert intervals == [Interval(0, 10), Interval(20, 30)]


class TestOperations:
    def test_union(self):
        a = IntervalSet([Interval(0, 5)])
        b = IntervalSet([Interval(10, 15)])
        assert a.union(b).total_length == 10

    def test_intersection(self):
        a = IntervalSet([Interval(0, 10)])
        b = IntervalSet([Interval(5, 20)])
        assert list(a.intersection(b)) == [Interval(5, 10)]

    def test_difference_splits(self):
        a = IntervalSet([Interval(0, 10)])
        b = IntervalSet([Interval(4, 6)])
        assert list(a.difference(b)) == [Interval(0, 4), Interval(6, 10)]

    def test_covers(self):
        a = IntervalSet([Interval(0, 10), Interval(20, 30)])
        assert a.covers(Interval(2, 8))
        assert not a.covers(Interval(8, 22))
        assert a.covers(Interval(5, 5))  # empty is vacuously covered

    def test_uncovered(self):
        a = IntervalSet([Interval(0, 10)])
        gaps = a.uncovered(Interval(5, 15))
        assert list(gaps) == [Interval(10, 15)]


class TestProperties:
    @given(interval_set_strategy(), interval_set_strategy())
    def test_union_length_is_inclusion_exclusion(self, a, b):
        union = a.union(b)
        intersection = a.intersection(b)
        assert (
            union.total_length
            == a.total_length + b.total_length - intersection.total_length
        )

    @given(interval_set_strategy(), interval_set_strategy(),
           st.integers(0, 200))
    def test_pointwise_union_semantics(self, a, b, point):
        assert a.union(b).contains(point) == (
            a.contains(point) or b.contains(point)
        )

    @given(interval_set_strategy(), interval_set_strategy(),
           st.integers(0, 200))
    def test_pointwise_intersection_semantics(self, a, b, point):
        assert a.intersection(b).contains(point) == (
            a.contains(point) and b.contains(point)
        )

    @given(interval_set_strategy(), interval_set_strategy(),
           st.integers(0, 200))
    def test_pointwise_difference_semantics(self, a, b, point):
        assert a.difference(b).contains(point) == (
            a.contains(point) and not b.contains(point)
        )

    @given(interval_set_strategy())
    def test_difference_with_self_is_empty(self, a):
        assert not a.difference(a)

    @given(interval_set_strategy(), interval_strategy())
    def test_covers_iff_uncovered_empty(self, a, interval):
        assert a.covers(interval) == (not a.uncovered(interval))


class TestSpansCover:
    """The guarantee checkers' sort-and-sweep over plain ``(start, end)``
    tuples against the interval-set algebra it stands in for."""

    def test_empty_touching_and_nested(self):
        assert not spans_cover([], 0, 10)
        assert spans_cover([], 5, 5)  # an empty interval is vacuously covered
        assert spans_cover([(5, 10), (0, 5)], 0, 10)  # touching, unsorted
        assert not spans_cover([(0, 5), (6, 10)], 0, 10)  # one tick missing
        assert spans_cover([(0, 20), (3, 4), (5, 9)], 2, 15)  # nested
        assert not spans_cover([(3, 4), (0, 2), (5, 9)], 0, 9)
        assert spans_cover([(7, 3), (0, 10)], 0, 10)  # an empty span is inert
        assert not spans_cover([(1, 10)], 0, 10)  # late start

    # Endpoints from a small range, unordered pairs included, so that empty,
    # touching, nested and duplicate spans are all common.
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=8),
        st.integers(0, 30),
        st.integers(0, 30),
    )
    def test_agrees_with_interval_set_uncovered(self, spans, start, end):
        reference = IntervalSet(Interval(a, b) for a, b in spans)
        expected = not reference.uncovered(Interval(start, end))
        assert spans_cover(list(spans), start, end) == expected
