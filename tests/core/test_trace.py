"""Unit tests for execution traces, timelines, and the validator."""

import dataclasses
import gc
import time
import weakref

import pytest

from repro.core.dsl import parse_rule
from repro.core.errors import TraceError
from repro.core.events import (
    Event,
    EventKind,
    notify_desc,
    reset_event_sequence,
    spontaneous_write_desc,
    write_desc,
    write_request_desc,
)
from repro.core.interpretations import EMPTY_INTERPRETATION
from repro.core.items import MISSING, DataItemRef, item
from repro.core.templates import template
from repro.core.terms import pattern
from repro.core.trace import (
    ExecutionTrace,
    Timeline,
    TimelineSegment,
    validate_trace,
)
from repro.core.timebase import seconds


X = item("X")
Y = item("Y")


class TestRecording:
    def test_write_updates_interpretations(self, trace):
        event = trace.record(10, "a", write_desc(X, 5))
        assert X not in event.old
        assert event.new[X] == 5

    def test_chaining(self, trace):
        first = trace.record(10, "a", write_desc(X, 5))
        second = trace.record(20, "a", write_desc(X, 6))
        assert second.old == first.new

    def test_non_write_preserves_state(self, trace):
        trace.record(10, "a", write_desc(X, 5))
        event = trace.record(20, "a", notify_desc(X, 5))
        assert event.new == event.old

    def test_out_of_order_recording_rejected(self, trace):
        trace.record(10, "a", write_desc(X, 5))
        with pytest.raises(TraceError):
            trace.record(5, "a", write_desc(X, 6))

    def test_record_and_record_batch_build_equal_events(self):
        # record_batch is record once per descriptor: same fields, same
        # numbering, same slotted shape, and the whole block is in the
        # trace, indexed, the moment the call returns.
        descs = [
            notify_desc(X, 1),
            spontaneous_write_desc(X, 1, 2),
            write_desc(Y, 3),
            notify_desc(Y, 3),
        ]
        reset_event_sequence()
        single = ExecutionTrace()
        one_by_one = [single.record(10, "a", desc) for desc in descs]
        reset_event_sequence()
        trace = ExecutionTrace()
        block = trace.record_batch(10, "a", descs)
        assert block == one_by_one
        assert [e.seq for e in block] == [1, 2, 3, 4]
        for event in block + one_by_one:
            assert type(event) is Event and not hasattr(event, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            block[0].time = 11
        assert list(trace.events) == block
        assert list(trace.writes_to(X)) == [block[1]]
        assert trace.horizon == 10 and trace.current_value(Y) == 3
        for previous, event in zip(block, block[1:]):
            assert event.old is previous.new
        for event in block:
            assert (event.new is event.old) is (not event.desc.kind.is_write)
            assert event.rule is None and event.trigger is None
        # An empty block reserves nothing; a time regression records nothing.
        assert trace.record_batch(11, "a", []) == []
        with pytest.raises(TraceError):
            trace.record_batch(9, "a", descs)
        assert len(trace) == 4 and trace.record(11, "a", descs[0]).seq == 5

    def test_seed_before_events_only(self, trace):
        trace.record(10, "a", write_desc(X, 5))
        with pytest.raises(TraceError):
            trace.seed(Y, 1)

    def test_current_value(self, trace):
        assert trace.current_value(X) is MISSING
        trace.record(10, "a", write_desc(X, 5))
        assert trace.current_value(X) == 5


class TestTimelines:
    def test_seeded_initial_value(self, trace):
        trace.seed(X, 7)
        trace.close(100)
        assert trace.value_at(X, 0) == 7
        assert trace.value_at(X, 99) == 7

    def test_value_before_any_write_is_missing(self, trace):
        trace.record(50, "a", write_desc(X, 1))
        assert trace.value_at(X, 49) is MISSING
        assert trace.value_at(X, 50) == 1

    def test_segments_are_maximal(self, trace):
        trace.record(10, "a", write_desc(X, 1))
        trace.record(20, "a", write_desc(X, 1))  # no-op value
        trace.record(30, "a", write_desc(X, 2))
        trace.close(100)
        segments = list(trace.timeline(X).segments())
        values = [s.value for s in segments]
        assert values == [MISSING, 1, 2]
        assert segments[1].start == 10 and segments[1].end == 30

    def test_timeline_cache_invalidates_on_append(self, trace):
        trace.record(10, "a", write_desc(X, 1))
        assert trace.value_at(X, 15) == 1
        trace.record(20, "a", write_desc(X, 2))
        assert trace.value_at(X, 25) == 2

    def test_refs_of_family(self, trace):
        trace.record(10, "a", write_desc(item("s", "e1"), 1))
        trace.record(20, "a", write_desc(item("s", "e2"), 1))
        trace.record(30, "a", write_desc(item("t", "e3"), 1))
        assert trace.refs_of_family("s") == [item("s", "e1"), item("s", "e2")]


class TestValidator:
    def _propagation_events(self, trace):
        rule = parse_rule("N(X, b) -> [5] WR(Y, b)", name="prop")
        ws = trace.record(seconds(1), "a", spontaneous_write_desc(X, MISSING, 5))
        iface = parse_rule("Ws(X, b) -> [2] N(X, b)", name="iface")
        n = trace.record(seconds(2), "a", notify_desc(X, 5), rule=iface, trigger=ws)
        wr = trace.record(
            seconds(3), "b", write_request_desc(Y, 5), rule=rule, trigger=n
        )
        return rule, iface, wr

    def test_clean_generated_chain_validates(self, trace):
        rule, iface, wr = self._propagation_events(trace)
        trace.close(seconds(60))
        assert validate_trace(trace, [rule]) == []

    def test_prohibited_event_flagged(self, trace):
        prohibition = parse_rule("Ws(X, b) -> [0] FALSE", name="nospont")
        trace.record(seconds(1), "a", spontaneous_write_desc(X, MISSING, 5))
        trace.close(seconds(10))
        violations = validate_trace(trace, [prohibition])
        assert [v.property_number for v in violations] == [6]

    def test_missing_obligation_flagged(self, trace):
        rule = parse_rule("N(X, b) -> [5] WR(Y, b)", name="prop")
        trace.record(seconds(1), "a", notify_desc(X, 5))
        trace.close(seconds(60))  # deadline passed, no WR recorded
        violations = validate_trace(trace, [rule])
        assert any(v.property_number == 6 for v in violations)

    def test_obligation_not_yet_due_is_not_flagged(self, trace):
        rule = parse_rule("N(X, b) -> [5] WR(Y, b)", name="prop")
        trace.record(seconds(1), "a", notify_desc(X, 5))
        trace.close(seconds(2))  # horizon before the deadline
        assert validate_trace(trace, [rule]) == []

    def test_late_generated_event_flagged(self, trace):
        rule = parse_rule("N(X, b) -> [5] WR(Y, b)", name="prop")
        n = trace.record(seconds(1), "a", notify_desc(X, 5))
        trace.record(
            seconds(20), "b", write_request_desc(Y, 5), rule=rule, trigger=n
        )
        trace.close(seconds(30))
        assert any(
            v.property_number == 5 for v in validate_trace(trace, [rule])
        )

    def test_spontaneous_with_provenance_flagged(self, trace):
        rule = parse_rule("N(X, b) -> [5] WR(Y, b)", name="prop")
        n = trace.record(seconds(1), "a", notify_desc(X, 5))
        trace.record(
            seconds(2),
            "a",
            spontaneous_write_desc(X, 5, 6),
            rule=rule,
            trigger=n,
        )
        trace.close(seconds(10))
        assert any(
            v.property_number == 4 for v in validate_trace(trace, [])
        )

    def test_out_of_order_related_rules_flagged(self, trace):
        rule = parse_rule("N(X, b) -> [5] WR(Y, b)", name="prop")
        n1 = trace.record(seconds(1), "a", notify_desc(X, 1))
        n2 = trace.record(seconds(2), "a", notify_desc(X, 2))
        # The later trigger's effect lands first: property 7 violation.
        trace.record(
            seconds(3), "b", write_request_desc(Y, 2), rule=rule, trigger=n2
        )
        trace.record(
            seconds(4), "b", write_request_desc(Y, 1), rule=rule, trigger=n1
        )
        trace.close(seconds(10))
        assert any(
            v.property_number == 7 for v in validate_trace(trace, [])
        )


class TestInOrderScan:
    """Property 7's tie rules and grouping, one late event per violation."""

    RULE = parse_rule("N(X, b) -> [5] WR(Y, b)", name="prop")

    def _late(self, plan):
        """Record one generated event per ``(trigger site, trigger tick,
        site, tick)`` row; returns the rows property 7 flags with their
        messages."""
        trace = ExecutionTrace()
        recorded = []
        for source, trigger_tick, site, tick in plan:
            trigger = Event(
                time=trigger_tick,
                site=source,
                desc=notify_desc(X, 0),
                old=EMPTY_INTERPRETATION,
                new=EMPTY_INTERPRETATION,
            )
            recorded.append(
                trace.record(
                    tick,
                    site,
                    write_request_desc(Y, 0),
                    rule=self.RULE,
                    trigger=trigger,
                )
            )
        return [
            (recorded.index(v.event), v.message)
            for v in validate_trace(trace, [])
            if v.property_number == 7
        ]

    def test_equal_trigger_ticks_never_flag(self):
        plan = [("a", 5, "b", 10), ("a", 5, "b", 20), ("a", 5, "b", 30)]
        assert self._late(plan) == []

    def test_equal_event_ticks_never_flag(self):
        assert self._late([("a", 9, "b", 10), ("a", 3, "b", 10)]) == []
        # The trigger-9 event raises the mark only once tick 20 is over: the
        # trigger-7 event sharing its tick is not late, the one after it is.
        late = self._late(
            [
                ("a", 1, "b", 10),
                ("a", 5, "b", 20),
                ("a", 9, "b", 20),
                ("a", 7, "b", 20),
                ("a", 8, "b", 30),
            ]
        )
        assert [row for row, __ in late] == [4]

    def test_non_adjacent_inversion_flags_only_the_late_event(self):
        late = self._late([("a", 8, "b", 10), ("a", 8, "b", 20), ("a", 7, "b", 30)])
        witness = "(triggers at 8 vs 7, events at 10 vs 30)"
        assert late == [(2, f"related rules fired out of order {witness}")]

    def test_late_event_reported_once_however_many_it_trails(self):
        late = self._late([("a", 6, "b", 10), ("a", 9, "b", 20), ("a", 5, "b", 30)])
        witness = "(triggers at 9 vs 5, events at 20 vs 30)"
        assert late == [(2, f"related rules fired out of order {witness}")]

    def test_interleaved_groups_are_checked_apart(self):
        plan = [
            ("a", 1, "b", 10),
            ("c", 20, "b", 21),
            ("a", 3, "b", 30),
            ("c", 22, "b", 31),
            ("a", 5, "b", 50),
            ("c", 24, "b", 60),
        ]
        assert self._late(plan) == []

    def test_trigger_identity_is_by_value(self, trace):
        # After the wire codec a trigger is a reconstruction: same (site,
        # seq) and time, another object.
        n1 = trace.record(seconds(1), "a", notify_desc(X, 1))
        n2 = trace.record(seconds(2), "a", notify_desc(X, 2))
        for tick, trigger in ((3, n1), (4, n2), (5, n2), (6, n1)):
            copy = dataclasses.replace(trigger)
            assert copy is not trigger and copy.seq == trigger.seq
            last = trace.record(
                seconds(tick),
                "b",
                write_request_desc(Y, 0),
                rule=self.RULE,
                trigger=copy,
            )
        late = [v.event for v in validate_trace(trace, []) if v.property_number == 7]
        assert late == [last]

    def test_single_group_of_20000_validates_in_linear_time(self, trace):
        # A complexity check, not a timing one: the scan takes ~0.2 s here,
        # a pairwise loop (2e8 pairs) ~18 s; the budget is ~20x from both.
        announce = parse_rule("Ws(X, a, b) -> [1] N(X, b)", name="announce")
        for index in range(20_000):
            write = trace.record(
                2 * index, "a", spontaneous_write_desc(X, index - 1, index)
            )
            trace.record(
                2 * index + 1, "a", notify_desc(X, index), rule=announce, trigger=write
            )
        trace.close(seconds(60))
        started = time.perf_counter()
        assert validate_trace(trace, [announce]) == []
        assert time.perf_counter() - started < 5.0


class TestTimelineEdgeCases:
    def test_same_instant_overwrite_recreates_adjacent_duplicate(self):
        # Last-wins at t=20 turns (20, "b") into (20, "a"), re-creating an
        # adjacent duplicate of the (10, "a") entry, which must then
        # collapse away entirely (the two-pass collapse).
        timeline = Timeline([(10, "a"), (20, "b"), (20, "a")], horizon=100)
        assert timeline.change_points() == [(0, MISSING), (10, "a")]
        assert timeline.value_at(25) == "a"

    def test_same_instant_overwrite_in_recorded_trace(self, trace):
        trace.record(10, "a", write_desc(X, "a"))
        trace.record(20, "a", write_desc(X, "b"))
        trace.record(20, "a", write_desc(X, "a"))
        trace.close(100)
        assert trace.timeline(X).change_points() == [(0, MISSING), (10, "a")]

    def test_handed_out_timeline_frozen_under_tail_collapse(self, trace):
        trace.record(10, "a", write_desc(X, "a"))
        trace.record(20, "a", write_desc(X, "b"))
        trace.close(30)
        before = trace.timeline(X)
        points = before.change_points()
        # A same-instant overwrite back to "a" pops the (20, "b") entry from
        # the incremental builder — the already handed-out view must not
        # change retroactively (copy-on-write).
        trace.record(20, "a", write_desc(X, "a"))
        after = trace.timeline(X)
        assert before.change_points() == points
        assert before.value_at(25) == "b"
        assert after.change_points() == [(0, MISSING), (10, "a")]
        assert after.value_at(25) == "a"

    def test_held_segments_are_derived_once_per_timeline(self, trace):
        trace.record(10, "a", write_desc(X, "a"))
        trace.record(20, "a", write_desc(X, "b"))
        trace.close(30)
        before = trace.timeline(X)
        held = before.held()
        assert held == (TimelineSegment(10, 20, "a"), TimelineSegment(20, 30, "b"))
        assert before.held() is held  # no MISSING head, nothing re-derived
        assert trace.timeline(X).held() is held
        assert before.held_with("b") == (held[1],)
        assert before.held_with("b")[0] is held[1]
        assert before.held_with(MISSING) == () == before.held_with("zz")
        # Four queries against two held segments: from the third on the
        # answer comes from the grouping, of the same segment objects.
        assert before._by_value == {"a": (held[0],), "b": (held[1],)}
        assert before.held_with("b")[0] is held[1]
        # A further write yields a *new* timeline with the new segment; the
        # view handed out earlier still answers from what it remembered.
        trace.record(25, "a", write_desc(X, "c"))
        after = trace.timeline(X)
        assert after is not before
        assert [s.value for s in after.held()] == ["a", "b", "c"]
        assert after.held()[1] == TimelineSegment(20, 25, "b")
        assert before.held() is held and held[1].end == 30

    def test_held_with_long_histories_group_and_short_ones_scan(self):
        # A timeline scans until it has been queried more times than it
        # holds segments, then answers from a by-value grouping built once,
        # whatever its length; both paths must agree with a filter and
        # return tuples.
        probes = (0, 1, 2, 1.0, True, "absent", MISSING)
        for length in (1, 3, 8, 9, 40):
            changes = [(10 * (i + 1), i % 3) for i in range(length)]
            timeline = Timeline(changes, horizon=10 * (length + 2))
            assert len(timeline.held()) == length
            for query in range(length + len(probes)):
                value = probes[query % len(probes)]
                expected = tuple(s for s in timeline.held() if s.value == value)
                answer = timeline.held_with(value)
                assert type(answer) is tuple and answer == expected
                grouped = query + 1 > length
                assert (timeline._by_value is not None) == grouped
        # Read once per checker, a long history is never grouped.
        once = Timeline([(10 * (i + 1), i) for i in range(40)], horizon=500)
        for value in range(3):
            once.held_with(value)
        assert once._by_value is None

    def test_held_with_unhashable_values_falls_back_to_a_scan(self):
        changes = [(10 * (i + 1), [i % 2]) for i in range(2)]
        timeline = Timeline(changes, horizon=200)
        assert timeline.held_with([1]) == (timeline.held()[1],)
        assert timeline.held_with([0]) == (timeline.held()[0],)
        assert timeline._by_value is None  # two queries, two segments: scans
        assert [s.start for s in timeline.held_with([1])] == [20]
        assert timeline._by_value is False  # remembered: no second attempt
        assert len(timeline.held_with([0])) == 1
        # ... and an unhashable probe against a hashable, grouped history.
        plain = Timeline([(10 * (i + 1), i) for i in range(2)], horizon=200)
        for __ in range(3):
            assert plain.held_with(1) == (plain.held()[1],)
        assert plain._by_value
        assert plain.held_with([1]) == ()

    def test_segment_is_a_frozen_slotted_value(self):
        segment = TimelineSegment(10, 20, "a")
        assert segment == TimelineSegment(10, 20, "a")
        assert segment != TimelineSegment(10, 21, "a")
        assert hash(segment) == hash(TimelineSegment(10, 20, "a"))
        assert repr(segment) == "TimelineSegment(start=10, end=20, value='a')"
        assert segment.covers(10) and not segment.covers(20)
        assert segment.length == 10
        # A tuple (the timeline builds its segments in C): immutable, and
        # still a ``TimelineSegment`` when built from ``held()``'s path.
        with pytest.raises(AttributeError):
            segment.end = 30
        assert not hasattr(segment, "__dict__")
        built = Timeline([(10, "a")], horizon=20).held()[0]
        assert type(built) is TimelineSegment and built == segment

    def test_close_extends_horizon_of_later_timelines_only(self, trace):
        trace.record(10, "a", write_desc(X, 1))
        early = trace.timeline(X)
        assert early.horizon == 10
        trace.close(50)
        late = trace.timeline(X)
        assert late.horizon == 50
        assert list(late.segments())[-1].end == 50
        assert early.horizon == 10  # handed-out timelines stay frozen

    def test_close_never_shrinks_horizon(self, trace):
        trace.record(10, "a", write_desc(X, 1))
        trace.close(100)
        trace.close(40)
        assert trace.horizon == 100

    def test_value_at_before_time_zero(self, trace):
        trace.seed(X, 7)
        trace.record(10, "a", write_desc(X, 1))
        trace.close(20)
        timeline = trace.timeline(X)
        assert timeline.value_at(-1) is MISSING
        assert timeline.value_at(0) == 7
        assert Timeline([(0, 5)], horizon=10).value_at(-3) is MISSING


class TestRowViews:
    def test_trigger_resolves_by_site_and_seq(self, trace):
        # Sequence numbers are per process: merged or replayed numbering can
        # put another site's event where this trace's own numbering would.
        trace.record(10, "a", notify_desc(X, 1), seq=499)
        trace.record(10, "annex", notify_desc(X, 2), seq=500)
        hub = trace.record(10, "hub", notify_desc(X, 3), seq=500)
        trace.record(
            20, "b", write_request_desc(Y, 3), rule=parse_rule(
                "N(X, b) -> [5] WR(Y, b)", name="prop"
            ), trigger=hub, seq=501,
        )
        generated = trace.events[-1]
        assert (generated.trigger.site, generated.trigger.seq) == ("hub", 500)
        assert generated.trigger.desc == hub.desc

    def test_len_builds_no_views(self, trace):
        for tick in range(5):
            trace.record(tick, "a", write_desc(X, tick))
        events = trace.events
        assert len(events) == 5 and events._built is None
        assert events[2] == trace.events[2] and events._built is not None


class TestEventsSnapshot:
    def test_events_is_a_read_only_tuple(self, trace):
        trace.record(10, "a", write_desc(X, 1))
        events = trace.events
        assert isinstance(events, tuple)
        assert not hasattr(events, "append")

    def test_snapshot_is_stable_while_trace_grows(self, trace):
        trace.record(10, "a", write_desc(X, 1))
        snapshot = trace.events
        trace.record(20, "a", write_desc(X, 2))
        assert len(snapshot) == 1
        assert len(trace.events) == 2
        assert trace.events[:1] == snapshot


class TestIncrementalTimelineWork:
    def test_interleaved_timeline_calls_do_constant_work_per_write(self, trace):
        # The regression this guards: timeline() used to rebuild from every
        # write of the item, making record+query loops quadratic.  The probe
        # counter counts writes folded into timeline builders; N interleaved
        # calls after N writes must fold each write exactly once.
        n = 200
        for index in range(n):
            trace.record(10 * (index + 1), "a", write_desc(X, index))
            trace.timeline(X)
        assert trace.stats()["timeline_extend_steps"] == n

    def test_timeline_object_reused_when_nothing_changed(self, trace):
        trace.record(10, "a", write_desc(X, 1))
        first = trace.timeline(X)
        assert trace.timeline(X) is first
        assert trace.stats()["timeline_cache_hits"] == 1
        trace.record(20, "a", write_desc(X, 2))
        assert trace.timeline(X) is not first


class TestReferenceCycles:
    def test_a_dropped_trace_is_freed_without_the_collector(self):
        # Views point at the trace's rows, not at the trace: neither its
        # current state nor the views ``events`` built keep it alive.
        gc.collect()
        gc.disable()
        try:
            for length in (0, 6):
                trace = ExecutionTrace()
                for tick in range(length):
                    trace.record(tick, "a", write_desc(X, tick))
                events = trace.events
                assert len(events) == length and list(events) == list(trace.events)
                del events
                freed = weakref.ref(trace)
                del trace
                assert freed() is None
        finally:
            gc.enable()

    def test_views_outlive_their_trace(self):
        trace = ExecutionTrace()
        trace.record(1, "a", write_desc(X, 1))
        trace.record(2, "a", write_desc(X, 2))
        first, second = trace.events
        del trace
        assert (first.new[X], second.old[X], second.new[X]) == (1, 1, 2)
