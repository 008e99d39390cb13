"""Execution traces and the valid-execution properties of Appendix A.2.

Every constraint-relevant event in a scenario is recorded, in time order, in
an :class:`ExecutionTrace`.  The trace maintains the running interpretation
(state of the traced items) so each recorded event carries correct ``old`` /
``new`` interpretations, derives per-item value *timelines* for the guarantee
checker, and can be validated against the seven properties that define a
valid execution in the paper's Appendix A.2.

The trace layer is the hot path of every scenario, so it is engineered to
stay near-linear in the number of events:

- ``record()`` is O(1) per event: ``old``/``new`` are copy-on-write views
  over one shared :class:`~repro.core.interpretations.StateJournal` instead
  of per-event dict snapshots;
- every query (:meth:`~ExecutionTrace.writes_to`,
  :meth:`~ExecutionTrace.events_of_kind`,
  :meth:`~ExecutionTrace.events_matching`,
  :meth:`~ExecutionTrace.refs_of_family`) reads record-time indexes —
  per-item write lists, per-kind and per-(kind, family) event lists — rather
  than scanning the whole trace;
- :meth:`~ExecutionTrace.timeline` extends a per-item incrementally
  collapsed change list, doing O(1) work per appended write, instead of
  rebuilding from all of the item's writes, and hands out the same
  :class:`Timeline` until the item changes; a timeline derives its held
  segments once (:meth:`Timeline.held`), so every guarantee checker reads
  the same segment objects;
- :func:`validate_trace` compiles and matches each distinct LHS once and
  resolves provenance through a per-rule index keyed by trigger ``seq``.

The naive full-scan implementations are retained in
:class:`ReferenceTraceQueries` / :func:`validate_trace_naive` as the
executable specification; randomized equivalence tests hold the fast paths
to them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

from repro.core import events as _numbering
from repro.core.errors import TraceError
from repro.core.events import Event, EventDesc, EventKind
from repro.core.interpretations import StateJournal, write_delta
from repro.core.items import MISSING, DataItemRef, Value
from repro.core.rules import Rule
from repro.core.templates import Matcher, Template, compile_matcher, match_desc
from repro.core.terms import Bindings
from repro.core.timebase import Ticks


@dataclass(frozen=True, slots=True)
class TimelineSegment:
    """A maximal interval during which an item held one value.

    The segment covers ``[start, end)``; the final segment of a timeline has
    ``end`` equal to the trace horizon.
    """

    start: Ticks
    end: Ticks
    value: Value

    def covers(self, time: Ticks) -> bool:
        """Whether the (half-open) segment contains ``time``."""
        return self.start <= time < self.end

    @property
    def length(self) -> Ticks:
        """Duration of the segment in ticks."""
        return max(0, self.end - self.start)


class Timeline:
    """The piecewise-constant value history of one data item.

    Built from a trace: the item starts at its seeded value (or MISSING) and
    changes at each write event.  Queries are binary searches.

    A timeline is immutable once handed out.  Instances built by
    :meth:`ExecutionTrace.timeline` share their change arrays with the
    trace's incremental per-item builder; the builder appends past
    ``_length`` (invisible here) and copies the arrays before any in-place
    collapse that would touch an entry this view can see.  That is what
    makes it sound for a timeline to remember what it derives from itself
    (:meth:`held`, :meth:`held_with`): nothing it was derived from can
    change, and a further write to the item yields a *new* timeline.
    """

    __slots__ = (
        "_times", "_values", "_length", "horizon", "_held", "_by_value", "_queries"
    )

    def __init__(self, changes: list[tuple[Ticks, Value]], horizon: Ticks):
        if not changes or changes[0][0] != 0:
            changes = [(0, MISSING)] + list(changes)
        # Collapse simultaneous changes (the last write at an instant wins),
        # then drop no-op changes so segments are maximal.  Two passes: a
        # same-instant overwrite can re-create an adjacent duplicate that
        # the first pass already let through.
        collapsed: list[tuple[Ticks, Value]] = []
        for time, value in changes:
            if collapsed and collapsed[-1][0] == time:
                collapsed[-1] = (time, value)
            else:
                collapsed.append((time, value))
        deduped: list[tuple[Ticks, Value]] = []
        for time, value in collapsed:
            if not deduped or deduped[-1][1] != value:
                deduped.append((time, value))
        self._times = [time for time, _ in deduped]
        self._values = [value for _, value in deduped]
        self._length = len(self._times)
        self.horizon = max(horizon, self._times[-1])
        self._held = self._by_value = None
        self._queries = 0

    @classmethod
    def _over(
        cls,
        times: list[Ticks],
        values: list[Value],
        length: int,
        horizon: Ticks,
    ) -> "Timeline":
        """A view over pre-collapsed change arrays (no copy, no re-collapse)."""
        timeline = cls.__new__(cls)
        timeline._times = times
        timeline._values = values
        timeline._length = length
        timeline.horizon = max(horizon, times[length - 1])
        timeline._held = timeline._by_value = None
        timeline._queries = 0
        return timeline

    def value_at(self, time: Ticks) -> Value:
        """The item's value at virtual time ``time``."""
        if time < 0:
            return MISSING
        index = bisect_right(self._times, time, 0, self._length) - 1
        return self._values[index]

    def segments(self) -> Iterator[TimelineSegment]:
        """All maximal constant segments, in time order."""
        times, values, length = self._times, self._values, self._length
        for index in range(length):
            start = times[index]
            end = times[index + 1] if index + 1 < length else self.horizon
            if end > start:
                yield TimelineSegment(start, end, values[index])

    def held(self) -> tuple[TimelineSegment, ...]:
        """The segments with a real (non-``MISSING``) value, in time order.

        Derived on first use and remembered: every later call, from any
        checker, returns the same tuple of the same segment objects.
        """
        held = self._held
        if held is None:
            held = self._held = tuple(
                s for s in self.segments() if s.value is not MISSING
            )
        return held

    def held_with(self, value: Value) -> tuple[TimelineSegment, ...]:
        """The :meth:`held` segments whose value equals ``value``.

        Scanned until the timeline has been asked more times than it holds
        segments, then answered from a by-value grouping built once (a
        history holding an unhashable value keeps scanning).
        """
        held = self.held()
        grouped = self._by_value
        if grouped is None:
            self._queries += 1
            if self._queries > len(held):
                lists: dict[Value, list[TimelineSegment]] = {}
                try:
                    for segment in held:
                        lists.setdefault(segment.value, []).append(segment)
                    grouped = {v: tuple(group) for v, group in lists.items()}
                except TypeError:
                    grouped = False  # an unhashable value: scan, do not retry
                self._by_value = grouped
        if grouped:
            try:
                return grouped.get(value, ())
            except TypeError:
                pass
        return tuple([s for s in held if s.value is value or s.value == value])

    def change_points(self) -> list[tuple[Ticks, Value]]:
        """The (time, new value) change list, starting at time 0."""
        length = self._length
        return list(zip(self._times[:length], self._values[:length]))

    def distinct_values(self) -> list[Value]:
        """Values taken over the trace, in order of first acquisition."""
        seen: list[Value] = []
        for value in self._values[: self._length]:
            if value not in seen:
                seen.append(value)
        return seen


class _TimelineBuilder:
    """One item's incrementally collapsed change list.

    Maintains the invariant that ``(times, values)`` is exactly what
    :class:`Timeline`'s two-pass collapse would produce for the writes folded
    in so far, by applying the collapse per appended write: a same-instant
    write overwrites the last entry (and merges away an adjacent duplicate it
    re-creates), a no-op value is dropped, anything else appends.

    Handed-out timelines share the arrays, frozen at their length; before an
    in-place tail mutation that a handed-out view could see, the arrays are
    copied (copy-on-write), so views never change retroactively.
    """

    __slots__ = ("_times", "_values", "_consumed", "_shared", "_cached")

    def __init__(self, seed_value: Value) -> None:
        self._times: list[Ticks] = [0]
        self._values: list[Value] = [seed_value]
        self._consumed = 0  # write events folded in so far
        self._shared = 0  # prefix length visible through a handed-out view
        self._cached: Optional[Timeline] = None

    def extend(self, writes: Sequence[Event]) -> int:
        """Fold in writes not yet consumed; returns the number processed."""
        consumed = self._consumed
        times, values = self._times, self._values
        for index in range(consumed, len(writes)):
            event = writes[index]
            time = event.time
            desc = event.desc
            value = desc.values[0] if desc.kind is _WRITE else desc.values[1]
            if times[-1] != time:
                if values[-1] != value:
                    times.append(time)
                    values.append(value)
            elif len(times) > 1 and values[-2] == value:
                # The same-instant overwrite re-created an adjacent
                # duplicate: the entry collapses away entirely.
                times, values = self._unshared()
                times.pop()
                values.pop()
            elif values[-1] != value:
                times, values = self._unshared()
                values[-1] = value
        self._consumed = len(writes)
        return len(writes) - consumed

    def _unshared(self) -> tuple[list[Ticks], list[Value]]:
        """The arrays, copied first if a handed-out view sees their tail."""
        if self._shared >= len(self._times):
            self._times = list(self._times)
            self._values = list(self._values)
            self._shared = 0
            self._cached = None
        return self._times, self._values

    def build(self, horizon: Ticks) -> Timeline:
        """The current timeline; reuses the last one when nothing changed."""
        length = len(self._times)
        effective = max(horizon, self._times[length - 1])
        cached = self._cached
        if (
            cached is not None
            and cached._times is self._times
            and cached._length == length
            and cached.horizon == effective
        ):
            return cached
        timeline = Timeline._over(self._times, self._values, length, horizon)
        self._shared = length
        self._cached = timeline
        return timeline


@dataclass
class Violation:
    """One valid-execution property violation found by the validator."""

    property_number: int
    message: str
    event: Optional[Event] = None

    def __str__(self) -> str:
        prefix = f"property {self.property_number}: {self.message}"
        if self.event is not None:
            prefix += f" (event {self.event})"
        return prefix


_NO_EVENTS: tuple[Event, ...] = ()


# Recording tests ``kind is _WRITE or kind is _SPONTANEOUS_WRITE`` instead of
# the ``is_write`` property: it runs once per event, and a Python-level
# property call is a measurable fraction of the whole record path.
_WRITE = EventKind.WRITE
_SPONTANEOUS_WRITE = EventKind.SPONTANEOUS_WRITE
_PERIODIC = EventKind.PERIODIC
_new_event = Event.__new__
_set_time = Event.time.__set__
_set_site = Event.site.__set__
_set_desc = Event.desc.__set__
_set_old = Event.old.__set__
_set_new = Event.new.__set__
_set_rule = Event.rule.__set__
_set_trigger = Event.trigger.__set__
_set_seq = Event.seq.__set__


class ExecutionTrace:
    """The recorded event sequence of one scenario run.

    The trace owns the authoritative interpretation of the traced items:
    callers record *what happened* (site + descriptor + provenance) and the
    trace computes the ``old``/``new`` interpretations, which guarantees
    valid-execution properties 2 and 3 by construction — the validator then
    re-checks them independently.

    Recording also maintains the query indexes (per-item writes, per-kind
    and per-(kind, family) event lists, per-family ref sets), so queries
    touch only the events they return.
    """

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._events_snapshot: tuple[Event, ...] = ()
        self._journal = StateJournal()
        self._seeded: dict[DataItemRef, Value] = {}
        self.horizon: Ticks = 0
        # -- record-time indexes (kinds keyed by ``_value_``, hashed in C) --
        self._writes_by_item: dict[DataItemRef, list[Event]] = {}
        self._by_kind: dict[str, list[Event]] = {}
        self._by_kind_family: dict[tuple[str, str], list[Event]] = {}
        self._family_refs: dict[str, set[DataItemRef]] = {}
        self._family_sorted: dict[str, tuple[int, list[DataItemRef]]] = {}
        self._generated: list[Event] = []
        self._timelines: dict[DataItemRef, _TimelineBuilder] = {}
        # Family-pair timeline lists of the guarantee checkers
        # (:func:`repro.core.guarantees.base.paired_timelines`).
        self._pairings: dict[tuple[str, str], tuple] = {}
        # -- instrumentation --
        self._timeline_extend_steps = 0
        self._timeline_builds = 0
        self._timeline_cache_hits = 0

    # -- recording -----------------------------------------------------------

    def seed(self, ref: DataItemRef, value: Value) -> None:
        """Set an item's initial (time-0) value without recording an event.

        Must be called before any event is recorded.
        """
        if self._events:
            raise TraceError("cannot seed a trace after events were recorded")
        self._journal.seed(ref, value)
        self._seeded[ref] = value
        self._family_refs.setdefault(ref.name, set()).add(ref)
        self._timelines.pop(ref, None)
        self._pairings.clear()

    def record(
        self,
        time: Ticks,
        site: str,
        desc: EventDesc,
        rule: Rule | None = None,
        trigger: Event | None = None,
        seq: int | None = None,
    ) -> Event:
        """Record one event, computing its interpretations.  O(1) per event.

        ``seq`` preserves an explicit sequence number when re-recording an
        event numbered elsewhere, e.g. replaying a trace with planted
        faults: event identity is ``(site, seq)``, so the copy must keep
        the original numbering for provenance lookups to resolve.  Passing
        it never advances the global event counter.
        """
        events = self._events
        if events and time < events[-1].time:
            raise TraceError(
                f"event at {time} recorded after event at {events[-1].time}"
            )
        journal = self._journal
        old = new = journal.view()
        kind = desc.kind
        item = desc.item
        is_write = kind is _WRITE or kind is _SPONTANEOUS_WRITE
        if is_write:
            assert item is not None
            journal.write(item, desc.values[0] if kind is _WRITE else desc.values[1])
            new = journal.view()
        if seq is None:
            seq = _numbering._next_seq
            _numbering._next_seq = seq + 1
        # Numbered, built and indexed in this one frame.  Event is a frozen,
        # slotted dataclass: its generated ``__init__`` sets every field by
        # name through ``object.__setattr__``, ~2.5x the cost of filling the
        # slots through their member descriptors.
        event = _new_event(Event)
        _set_time(event, time)
        _set_site(event, site)
        _set_desc(event, desc)
        _set_old(event, old)
        _set_new(event, new)
        _set_rule(event, rule)
        _set_trigger(event, trigger)
        _set_seq(event, seq)
        events.append(event)
        key = kind._value_
        indexed = self._by_kind.get(key)
        if indexed is None:
            indexed = self._by_kind[key] = []
        indexed.append(event)
        if item is not None:
            family = item.name
            indexed = self._by_kind_family.get((key, family))
            if indexed is None:
                indexed = self._by_kind_family[key, family] = []
            indexed.append(event)
            if is_write:
                indexed = self._writes_by_item.get(item)
                if indexed is None:
                    indexed = self._writes_by_item[item] = []
                indexed.append(event)
            refs = self._family_refs.get(family)
            if refs is None:
                refs = self._family_refs[family] = set()
            refs.add(item)
        if rule is not None or trigger is not None:
            self._generated.append(event)
        if time > self.horizon:
            self.horizon = time
        return event

    def record_batch(
        self, time: Ticks, site: str, descs: Sequence[EventDesc]
    ) -> list[Event]:
        """Record a same-tick block of events without provenance:
        :meth:`record` once per descriptor.

        Every event is in the trace before the call returns, so a caller
        that dispatches the block afterwards has all of it recorded before
        the first rule fires.  A time regression raises on the first
        descriptor and records nothing.
        """
        record = self.record
        return [record(time, site, desc) for desc in descs]

    def close(self, horizon: Ticks) -> None:
        """Extend the trace horizon to the end-of-run time."""
        self.horizon = max(self.horizon, horizon)

    # -- queries ---------------------------------------------------------------

    @property
    def events(self) -> tuple[Event, ...]:
        """All recorded events, in order (a read-only snapshot)."""
        snapshot = self._events_snapshot
        if len(snapshot) != len(self._events):
            snapshot = self._events_snapshot = tuple(self._events)
        return snapshot

    @property
    def seeded(self) -> Mapping[DataItemRef, Value]:
        """The seeded initial values (read-only view)."""
        return MappingProxyType(self._seeded)

    @property
    def generated_events(self) -> tuple[Event, ...]:
        """Events carrying provenance (a rule and/or trigger), in order."""
        return tuple(self._generated)

    def __len__(self) -> int:
        return len(self._events)

    def _candidates(self, tmpl: Template) -> Sequence[Event]:
        """The indexed superset of events that can match ``tmpl``."""
        if tmpl.kind is EventKind.FALSE:
            return _NO_EVENTS
        family = tmpl.dispatch_family
        if family is None:
            # Item-less (P) or family-wildcard template: every event of the
            # kind must be consulted.
            return self._by_kind.get(tmpl.kind._value_, _NO_EVENTS)
        return self._by_kind_family.get((tmpl.kind._value_, family), _NO_EVENTS)

    def events_matching(self, tmpl: Template) -> Iterator[tuple[Event, Bindings]]:
        """All (event, matching interpretation) pairs for a template."""
        for event in self._candidates(tmpl):
            bindings = match_desc(tmpl, event.desc)
            if bindings is not None:
                yield event, bindings

    def events_of_kind(self, kind: EventKind) -> Iterator[Event]:
        """All events with the given descriptor kind."""
        return iter(self._by_kind.get(kind._value_, _NO_EVENTS))

    def writes_to(self, ref: DataItemRef) -> Iterator[Event]:
        """All (generated or spontaneous) writes to ``ref``, in order."""
        return iter(self._writes_by_item.get(ref, _NO_EVENTS))

    def timeline(self, ref: DataItemRef) -> Timeline:
        """The value history of ``ref`` over this trace.

        Incremental: each call folds in only the writes recorded since the
        previous call for this item, and returns the cached
        :class:`Timeline` object when nothing changed.
        """
        builder = self._timelines.get(ref)
        if builder is None:
            builder = _TimelineBuilder(self._seeded.get(ref, MISSING))
            self._timelines[ref] = builder
        self._timeline_extend_steps += builder.extend(
            self._writes_by_item.get(ref, _NO_EVENTS)
        )
        before = builder._cached
        timeline = builder.build(self.horizon)
        if timeline is before:
            self._timeline_cache_hits += 1
        else:
            self._timeline_builds += 1
        return timeline

    def value_at(self, ref: DataItemRef, time: Ticks) -> Value:
        """Value of ``ref`` at ``time`` (MISSING before any seed/write)."""
        return self.timeline(ref).value_at(time)

    def current_value(self, ref: DataItemRef) -> Value:
        """Value of ``ref`` right now — O(1), no timeline construction."""
        return self._journal.current_value(ref, MISSING)

    def refs_of_family(self, family: str) -> list[DataItemRef]:
        """All ground item refs of a parameterized family seen in the trace."""
        refs = self._family_refs.get(family)
        if not refs:
            return []
        cached = self._family_sorted.get(family)
        if cached is not None and cached[0] == len(refs):
            return list(cached[1])
        ordered = sorted(refs, key=lambda r: (r.name, tuple(map(str, r.args))))
        self._family_sorted[family] = (len(refs), ordered)
        return list(ordered)

    def stats(self) -> dict[str, int]:
        """Recording/query counters (surfaced in run reports and tests)."""
        return {
            "events_recorded": len(self._events),
            "items_tracked": len(self._journal),
            "state_versions": self._journal.version,
            "interpretation_materializations": self._journal.materializations,
            "timeline_extend_steps": self._timeline_extend_steps,
            "timeline_builds": self._timeline_builds,
            "timeline_cache_hits": self._timeline_cache_hits,
        }


# -- validation (indexed) ----------------------------------------------------


def validate_trace(trace: ExecutionTrace, rules: list[Rule]) -> list[Violation]:
    """Check the seven valid-execution properties of Appendix A.2.

    Properties 1-5 are checked exactly.  Property 6 (rule liveness) is checked
    for every LHS match whose RHS steps carry the trivial condition; steps
    with non-trivial conditions depend on local shell state at firing time,
    which the trace does not retain, so a missing event for such a step is
    not reported (it may legitimately have been suppressed by its condition).
    Property 7 (in-order processing of related rules) is one scan, O(1) per
    generated event: in time order an event is late iff its trigger precedes
    the latest trigger its (trigger site, site) group saw at a strictly
    earlier event tick.  Each late event is reported once, not once per pair.

    Implementation: properties 1-5 are fused into a single pass over the
    event list (using the interpretation journal's write deltas for the
    property-2/3 state checks), and properties 6-7 consume the trace's
    kind/family indexes.  Each rule object gets one :class:`_RulePlan` per
    validation — its templates compiled once, its generated events indexed
    by trigger — which property 5 fills and property 6 reads — and rules
    with equal LHS templates share the matches of one :class:`_LhsMatch`.
    :func:`validate_trace_naive` is the pass-per-property, pair-per-pair,
    template-interpreting reference this is tested against.
    """
    buckets: dict[int, list[Violation]] = {n: [] for n in range(1, 8)}
    shared: dict[Template, _LhsMatch] = {}  # by LHS template
    plans = {id(rule): _RulePlan(rule, shared) for rule in rules}  # by identity
    previous: Event | None = None
    for event in trace.events:
        kind = event.desc.kind
        # Property 1: nondecreasing time.
        if previous is not None and event.time < previous.time:
            buckets[1].append(Violation(1, "events out of time order", event))

        # Property 2: write events transform interpretations correctly.
        if kind is _WRITE or kind is _SPONTANEOUS_WRITE:
            ref = event.desc.item
            assert ref is not None
            if not _write_transforms_state(event, ref):
                buckets[2].append(
                    Violation(2, "write event has inconsistent new state", event)
                )
        else:
            if event.new is not event.old and event.new != event.old:
                buckets[2].append(
                    Violation(2, "non-write event changed the state", event)
                )

        # Property 3: interpretations chain.
        if (
            previous is not None
            and event.old is not previous.new
            and event.old != previous.new
        ):
            buckets[3].append(
                Violation(3, "old state does not chain from previous event", event)
            )

        # Property 4: spontaneous events carry no provenance.
        if (kind is _SPONTANEOUS_WRITE or kind is _PERIODIC) and (
            event.rule is not None or event.trigger is not None
        ):
            buckets[4].append(
                Violation(4, "spontaneous event carries rule/trigger", event)
            )

        # Property 5: generated events have consistent provenance.
        rule = event.rule
        if rule is not None:
            plan = plans.get(id(rule))
            if plan is None:
                plan = plans[id(rule)] = _RulePlan(rule, shared)
            _check_provenance(event, rule, plan, buckets[5])

        previous = event

    # Property 6: rule liveness for unconditional steps.
    buckets[6] = _check_liveness(trace, rules, plans)

    # Property 7: related rules fire in order.
    buckets[7] = _check_in_order(trace._generated)

    return [violation for n in range(1, 8) for violation in buckets[n]]


def _write_transforms_state(event: Event, ref: DataItemRef) -> bool:
    """Property 2 for a write event: ``new == old.updated(ref, written)``.

    Fast path: when ``old``/``new`` are views of one journal, the check is a
    constant-time comparison against the journal's write log; the
    materializing equality check runs only for foreign (hand-built)
    interpretations or on mismatch.
    """
    written = event.written_value
    delta = write_delta(event.old, event.new)
    if delta is not None and len(delta) == 1:
        w_ref, w_value = delta[0]
        if w_ref == ref and w_value == written:
            return True
    return event.new == event.old.updated(ref, written)


class _LhsMatch:
    """One LHS template's compiled matcher, shared by the rules whose LHS
    equals it, with the last trigger object property 5 matched and its
    bindings (one entry: an entry per trigger would be one per generated
    event) and property 6's LHS events per rule site."""

    __slots__ = ("match", "trigger", "bindings", "at_site")

    def __init__(self, lhs: Template) -> None:
        self.match: Matcher = compile_matcher(lhs)
        self.trigger: Event | None = None
        self.bindings: Bindings | None = None
        self.at_site: dict[str | None, list[Event]] = {}


class _RulePlan:
    """What one validation needs of one rule object, derived once: the
    shared LHS (:class:`_LhsMatch`), one compiled matcher per RHS step
    (``steps[i]`` for ``rule.steps[i]``; ``FALSE`` compiles to
    match-nothing), and the rule's generated events by their trigger's
    ``seq`` — the event itself, a list only when one trigger generated
    several (a multi-step RHS).  The key is an int every event already
    holds, where ``(rule id, site, seq)`` tuples and a bucket list per event
    were the validator's allocation peak; the trigger's site is compared on
    the hit.  Trigger identity is ``(site, seq)``, never the object: a
    firing that crossed the wire carries a by-value reconstruction of its
    trigger.  ``confirmed``: property 5 matched every indexed event to a step.
    """

    __slots__ = ("lhs", "steps", "by_trigger", "confirmed")

    def __init__(self, rule: Rule, shared: dict[Template, _LhsMatch]) -> None:
        try:
            lhs = shared.get(rule.lhs)
            if lhs is None:
                lhs = shared[rule.lhs] = _LhsMatch(rule.lhs)
        except TypeError:  # an unhashable constant: this rule matches alone
            lhs = _LhsMatch(rule.lhs)
        self.lhs = lhs
        self.steps: tuple[Matcher, ...] = tuple(
            compile_matcher(step.template) for step in rule.steps
        )
        self.by_trigger: dict[int, Event | list[Event]] = {}
        self.confirmed = True


def _check_provenance(
    event: Event, rule: Rule, plan: _RulePlan, violations: list[Violation]
) -> None:
    """Property 5 checks for one generated event (and its index entry)."""
    trigger = event.trigger
    if trigger is None:
        violations.append(Violation(5, "generated event lacks a trigger", event))
        return
    index = plan.by_trigger
    held = index.get(trigger.seq)
    if held is None:
        index[trigger.seq] = event
    elif type(held) is list:
        held.append(event)
    else:
        index[trigger.seq] = [held, event]
    lhs = plan.lhs
    if trigger is lhs.trigger:
        bindings = lhs.bindings
    else:
        bindings = lhs.bindings = lhs.match(trigger.desc)
        lhs.trigger = trigger
    if bindings is None:
        plan.confirmed = False
        violations.append(
            Violation(5, "trigger does not match the rule's LHS", event)
        )
        return
    # Seeded with the LHS interpretation: instantiates the step *and* agrees
    # with the trigger on every shared variable.
    desc = event.desc
    for step in plan.steps:
        if step(desc, bindings) is not None:
            break
    else:
        plan.confirmed = False
        violations.append(
            Violation(
                5, "event is not an instantiation of any RHS template", event
            )
        )
    if trigger.time > event.time:
        violations.append(Violation(5, "event precedes its trigger", event))
    if event.time > trigger.time + rule.delay:
        violations.append(
            Violation(5, "event exceeds its rule's delay bound", event)
        )


def _lhs_events(trace: ExecutionTrace, rule: Rule, lhs: _LhsMatch) -> list[Event]:
    """LHS matches at the rule's own site (see :func:`_own_site_matches`),
    collected once per shared LHS and site."""
    site = rule.lhs_site
    found = lhs.at_site.get(site)
    if found is None:
        match = lhs.match
        found = lhs.at_site[site] = [
            event
            for event in trace._candidates(rule.lhs)
            if (site is None or event.site == site) and match(event.desc) is not None
        ]
    return found


def _check_liveness(
    trace: ExecutionTrace, rules: list[Rule], plans: dict[int, _RulePlan]
) -> list[Violation]:
    from repro.core.conditions import TRUE  # local import to avoid cycle noise

    violations: list[Violation] = []
    for rule in rules:
        prohibition = rule.is_prohibition
        if not prohibition and rule.condition is not TRUE:
            # The LHS condition read local data we no longer have; skip.
            continue
        plan = plans[id(rule)]
        if prohibition:
            for event in _lhs_events(trace, rule, plan.lhs):
                violations.append(
                    Violation(
                        6,
                        f"rule {rule.name!r} prohibits this event",
                        event,
                    )
                )
            continue
        # A seeded match that succeeded implies the unseeded one: while
        # property 5 flagged none of a single-step rule's indexed events,
        # each of them instantiates the step and needs no second match.
        steps = plan.steps
        if plan.confirmed and len(steps) == 1:
            steps = (None,)
        for event in _lhs_events(trace, rule, plan.lhs):
            deadline = event.time + rule.delay
            if deadline > trace.horizon:
                continue  # obligation not yet due at end of trace
            previous_time = event.time
            for step, matches in zip(rule.steps, steps):
                if step.condition is not TRUE:
                    break  # later steps' timing depends on this one; stop here
                found = _find_generated(plan, event, matches, previous_time, deadline)
                if found is None:
                    violations.append(
                        Violation(
                            6,
                            f"rule {rule.name!r}: no {step.template} within "
                            f"delay after trigger",
                            event,
                        )
                    )
                    break
                previous_time = found.time
    return violations


def _find_generated(
    plan: _RulePlan, trigger: Event, matches: Matcher | None, since: Ticks, until: Ticks
) -> Event | None:
    """``matches`` is ``None`` when every indexed event instantiates the step."""
    held = plan.by_trigger.get(trigger.seq)
    if held is None:
        return None
    for event in held if type(held) is list else (held,):
        if event.trigger.site != trigger.site:
            continue  # another site's event that happens to share the seq
        if event.time < since or event.time > until:
            continue
        if matches is None or matches(event.desc) is not None:
            return event
    return None


def _check_in_order(generated_events: Sequence[Event]) -> list[Violation]:
    """Property 7: if two generated events come from *related* rules (same
    LHS site, same RHS site), their order must match their triggers' order.
    One scan, one violation per late event; see :func:`validate_trace`."""
    events = [
        e for e in generated_events if e.rule is not None and e.trigger is not None
    ]
    if any(a.time > b.time for a, b in zip(events, events[1:])):
        events.sort(key=lambda e: e.time)  # tampered trace, see property 1
    violations: list[Violation] = []
    marks: dict[tuple[str, str], list] = {}  # group -> [mark holder, candidate]
    for event in events:
        mark = marks.setdefault((event.trigger.site, event.site), [None, event])
        first, held = mark
        if held.time < event.time:
            if first is None or held.trigger.time > first.trigger.time:
                first = mark[0] = held
            mark[1] = event
        elif event.trigger.time > held.trigger.time:
            mark[1] = event
        if first is not None and event.trigger.time < first.trigger.time:
            message = (
                f"related rules fired out of order (triggers at {first.trigger.time} "
                f"vs {event.trigger.time}, events at {first.time} vs {event.time})"
            )
            violations.append(Violation(7, message, event))
    return violations


# -- naive reference implementation ------------------------------------------
#
# The pre-index implementations, kept as the executable specification of the
# trace queries and the validator.  tests/core/test_trace_equivalence.py
# generates randomized traces and asserts the indexed fast paths above agree
# with these full scans, query by query.


class ReferenceTraceQueries:
    """Full-scan reference implementations of the trace queries.

    Reads only the public snapshot (``trace.events``, ``trace.seeded``,
    ``trace.horizon``), never the indexes, so a disagreement with
    :class:`ExecutionTrace`'s fast paths is always an index bug.
    """

    def __init__(self, trace: ExecutionTrace) -> None:
        self.trace = trace

    def events_matching(self, tmpl: Template) -> Iterator[tuple[Event, Bindings]]:
        for event in self.trace.events:
            bindings = match_desc(tmpl, event.desc)
            if bindings is not None:
                yield event, bindings

    def events_of_kind(self, kind: EventKind) -> Iterator[Event]:
        return (e for e in self.trace.events if e.desc.kind is kind)

    def writes_to(self, ref: DataItemRef) -> Iterator[Event]:
        for event in self.trace.events:
            if event.desc.kind.is_write and event.desc.item == ref:
                yield event

    def refs_of_family(self, family: str) -> list[DataItemRef]:
        refs: set[DataItemRef] = set()
        for ref in self.trace.seeded:
            if ref.name == family:
                refs.add(ref)
        for event in self.trace.events:
            ref = event.desc.item
            if ref is not None and ref.name == family:
                refs.add(ref)
        return sorted(refs, key=lambda r: (r.name, tuple(map(str, r.args))))

    def timeline(self, ref: DataItemRef) -> Timeline:
        changes: list[tuple[Ticks, Value]] = [
            (0, self.trace.seeded.get(ref, MISSING))
        ]
        for event in self.writes_to(ref):
            changes.append((event.time, event.written_value))
        return Timeline(changes, self.trace.horizon)

    def value_at(self, ref: DataItemRef, time: Ticks) -> Value:
        return self.timeline(ref).value_at(time)


def validate_trace_naive(
    trace: ExecutionTrace, rules: list[Rule]
) -> list[Violation]:
    """The original pass-per-property validator (reference implementation)."""
    queries = ReferenceTraceQueries(trace)
    violations: list[Violation] = []
    events = trace.events

    # Property 1: nondecreasing time.
    for previous, current in zip(events, events[1:]):
        if current.time < previous.time:
            violations.append(Violation(1, "events out of time order", current))

    # Property 2: write events transform interpretations correctly.
    for event in events:
        if event.desc.kind.is_write:
            ref = event.desc.item
            assert ref is not None
            expected = event.old.updated(ref, event.written_value)
            if event.new != expected:
                violations.append(
                    Violation(2, "write event has inconsistent new state", event)
                )
        else:
            if event.new != event.old:
                violations.append(
                    Violation(2, "non-write event changed the state", event)
                )

    # Property 3: interpretations chain.
    for previous, current in zip(events, events[1:]):
        if current.old != previous.new:
            violations.append(
                Violation(3, "old state does not chain from previous event", current)
            )

    # Property 4: spontaneous events carry no provenance.
    for event in events:
        spontaneous_kind = event.desc.kind in (
            EventKind.SPONTANEOUS_WRITE,
            EventKind.PERIODIC,
        )
        if spontaneous_kind and (event.rule is not None or event.trigger is not None):
            violations.append(
                Violation(4, "spontaneous event carries rule/trigger", event)
            )

    # Property 5: generated events have consistent provenance.
    for event in events:
        if event.rule is None:
            continue
        _check_provenance_naive(event, violations)

    # Property 6: rule liveness for unconditional steps.
    violations.extend(_check_liveness_naive(queries, rules))

    # Property 7: related rules fire in order.
    violations.extend(_check_in_order_naive(events))

    return violations


def _check_provenance_naive(event: Event, violations: list[Violation]) -> None:
    """Property 5 for one generated event, interpreting the templates: the
    reference's own copy, sharing nothing with :func:`_check_provenance`."""
    if event.trigger is None:
        violations.append(Violation(5, "generated event lacks a trigger", event))
        return
    rule = event.rule
    assert rule is not None
    bindings = match_desc(rule.lhs, event.trigger.desc)
    if bindings is None:
        violations.append(
            Violation(5, "trigger does not match the rule's LHS", event)
        )
        return
    if not _desc_matches_some_step_naive(rule, event.desc, bindings):
        violations.append(
            Violation(
                5, "event is not an instantiation of any RHS template", event
            )
        )
    if event.trigger.time > event.time:
        violations.append(Violation(5, "event precedes its trigger", event))
    if event.time > event.trigger.time + rule.delay:
        violations.append(
            Violation(5, "event exceeds its rule's delay bound", event)
        )


def _desc_matches_some_step_naive(
    rule: Rule, desc: EventDesc, bindings: Bindings
) -> bool:
    """Whether ``desc`` instantiates an RHS template under extended bindings."""
    for step in rule.steps:
        if step.template.kind is EventKind.FALSE:
            continue
        extended = match_desc(step.template, desc)
        if extended is None:
            continue
        consistent = all(
            extended.get(name, value) == value for name, value in bindings.items()
            if name in extended
        )
        if consistent:
            return True
    return False


def _own_site_matches(matches, rule: Rule):
    """LHS matches a shell would actually dispatch to ``rule``.

    A shell only sees its own site's events, so a rule pinned to a site
    (``lhs_site``; every installed periodic rule is) must not be held to
    another site's events — two sites polling on one period each record a
    ``P(period)`` the other's rule matches.
    """
    site = rule.lhs_site
    if site is None:
        return matches
    return ((event, b) for event, b in matches if event.site == site)


def _check_liveness_naive(
    queries: ReferenceTraceQueries, rules: list[Rule]
) -> list[Violation]:
    from repro.core.conditions import TRUE  # local import to avoid cycle noise

    trace = queries.trace
    violations: list[Violation] = []
    for rule in rules:
        if rule.is_prohibition:
            for event, __ in _own_site_matches(
                queries.events_matching(rule.lhs), rule
            ):
                violations.append(
                    Violation(
                        6,
                        f"rule {rule.name!r} prohibits this event",
                        event,
                    )
                )
            continue
        if rule.condition is not TRUE:
            continue
        for event, __ in _own_site_matches(
            queries.events_matching(rule.lhs), rule
        ):
            deadline = event.time + rule.delay
            if deadline > trace.horizon:
                continue
            previous_time = event.time
            for step in rule.steps:
                if step.condition is not TRUE:
                    break
                found = _find_generated_naive(
                    trace, rule, event, step.template, previous_time, deadline
                )
                if found is None:
                    violations.append(
                        Violation(
                            6,
                            f"rule {rule.name!r}: no {step.template} within "
                            f"delay after trigger",
                            event,
                        )
                    )
                    break
                previous_time = found.time
    return violations


def _find_generated_naive(
    trace: ExecutionTrace,
    rule: Rule,
    trigger: Event,
    tmpl: Template,
    not_before: Ticks,
    deadline: Ticks,
) -> Event | None:
    for event in trace.events:
        if event.time < not_before or event.time > deadline:
            continue
        # Trigger identity is (site, seq), not object identity: a firing
        # that crossed the wire carries a by-value trigger reconstruction.
        if (
            event.rule is rule
            and event.trigger is not None
            and event.trigger.site == trigger.site
            and event.trigger.seq == trigger.seq
        ):
            if match_desc(tmpl, event.desc) is not None:
                return event
    return None


def _check_in_order_naive(generated_events: Sequence[Event]) -> list[Violation]:
    """Property 7: if two generated events come from *related* rules (same
    LHS site, same RHS site), their order must match their triggers' order."""
    violations: list[Violation] = []
    generated = [
        e for e in generated_events if e.rule is not None and e.trigger is not None
    ]
    by_sites: dict[tuple[str, str], list[Event]] = {}
    for event in generated:
        key = (event.trigger.site, event.site)
        by_sites.setdefault(key, []).append(event)
    for group in by_sites.values():
        for index, first in enumerate(group):
            for second in group[index + 1:]:
                t1, t3 = first.trigger.time, second.trigger.time
                t2, t4 = first.time, second.time
                if t1 == t3 or t2 == t4:
                    continue
                if (t1 < t3) != (t2 < t4):
                    violations.append(
                        Violation(
                            7,
                            "related rules fired out of order "
                            f"(triggers at {t1} vs {t3}, events at {t2} vs {t4})",
                            second,
                        )
                    )
    return violations
