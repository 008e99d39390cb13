"""Execution traces and the valid-execution properties of Appendix A.2.

Every constraint-relevant event in a scenario is recorded, in time order, in
an :class:`ExecutionTrace`.  The trace maintains the running interpretation
(state of the traced items) so each recorded event carries correct ``old`` /
``new`` interpretations, derives per-item value *timelines* for the guarantee
checker, and can be validated against the seven properties that define a
valid execution in the paper's Appendix A.2.

The trace layer is the hot path of every scenario, so it is engineered to
stay near-linear in the number of events:

- ``record()`` is O(1) per event and keeps the event as a row of atoms, not
  as objects; readers get :class:`Event` views built from the rows on
  demand, and the rows are the state too (:class:`_State`);
- every query (:meth:`~ExecutionTrace.writes_to`,
  :meth:`~ExecutionTrace.events_of_kind`,
  :meth:`~ExecutionTrace.events_matching`,
  :meth:`~ExecutionTrace.refs_of_family`) reads record-time indexes —
  per-item write lists, per-kind and per-(kind, family) row lists — rather
  than scanning the whole trace;
- :meth:`~ExecutionTrace.timelines` extends each item's collapsed change
  list by O(1) work per new write and hands out the same :class:`Timeline`
  until the item changes; a timeline builds its held segments once, in C
  (:meth:`Timeline.held`), for every guarantee checker to share;
- :func:`validate_trace` reads the rows, and checks provenance a rule and
  a column at a time, by positional agreements derived from the rule's
  templates (no matcher, no bindings).

The naive full-scan implementations are retained in
:class:`ReferenceTraceQueries` / :func:`validate_trace_naive` as the
executable specification; randomized equivalence tests hold the fast paths
to them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from operator import and_, eq, itemgetter, lt, sub, truth
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from repro.core import events as _numbering
from repro.core.errors import TraceError
from repro.core.events import (  # and the slot setters
    Event, EventDesc, EventKind, _set_desc, _set_item, _set_kind, _set_new,
    _set_old, _set_rule, _set_seq, _set_site, _set_time, _set_trigger, _set_values,
)
from repro.core.interpretations import Interpretation
from repro.core.items import MISSING, DataItemRef, Value
from repro.core.rules import Rule
from repro.core.templates import (
    Matcher,
    Template,
    compile_fields_matcher,
    match_desc,
)
from repro.core.terms import FAMILY_WILDCARD, Bindings, Const, Var
from repro.core.timebase import Ticks


class TimelineSegment(NamedTuple):
    """A maximal interval during which an item held one value.

    The segment covers ``[start, end)``; the final segment of a timeline has
    ``end`` equal to the trace horizon.  A tuple, so a timeline builds its
    segments in C (:meth:`Timeline.held`).
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


#: A segment from a ``(start, end, value)`` tuple, in C (``_make`` is a
#: Python-level classmethod: one frame per segment).
_segment = partial(tuple.__new__, TimelineSegment)


class Timeline:
    """The piecewise-constant value history of one data item.

    Built from a trace: the item starts at its seeded value (or MISSING) and
    changes at each write event.  Queries are binary searches.

    A timeline is immutable once handed out.  Instances built by
    :meth:`ExecutionTrace.timelines` share their change arrays with the
    trace, which appends past ``_length`` (invisible here; ``_consumed``
    counts the item's writes folded in) and copies the arrays before any
    in-place collapse that would touch an entry this view can see.  That is
    what makes it sound for a timeline to remember what it derives from
    itself (:meth:`held`, :meth:`held_with`): nothing it was derived from
    can change, and a further write to the item yields a *new* timeline.
    """

    __slots__ = (
        "_times", "_values", "_length", "horizon", "_held", "_by_value",
        "_queries", "_consumed",
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

    def value_at(self, time: Ticks) -> Value:
        """The item's value at virtual time ``time``."""
        if time < 0:
            return MISSING
        index = bisect_right(self._times, time, 0, self._length) - 1
        return self._values[index]

    def segments(self) -> list[TimelineSegment]:
        """All maximal constant segments, in time order: built in C, through
        ``zip`` and ``map``, with no Python frame per segment."""
        length = self._length
        starts = self._times[:length]
        ends = starts[1:]
        ends.append(self.horizon)
        made = map(_segment, zip(starts, ends, self._values))
        return list(compress(made, map(lt, starts, ends)))

    def held(self) -> tuple[TimelineSegment, ...]:
        """The segments with a real (non-``MISSING``) value, in time order.

        Derived on first use and remembered: every later call, from any
        checker, returns the same tuple of the same segment objects.
        """
        held = self._held
        if held is None:
            held = tuple([s for s in self.segments() if s[2] is not MISSING])
            self._held = held
        return held

    def held_with(self, value: Value) -> tuple[TimelineSegment, ...]:
        """The :meth:`held` segments whose value equals ``value``.

        Scanned until the timeline has been asked more times than it holds
        segments, then answered from a by-value grouping built once (a
        history holding an unhashable value keeps scanning).
        """
        grouped = self._by_value
        if grouped is None:
            self._queries += 1
            if self._queries > len(self.held()):
                grouped = self.by_value()
        if grouped:
            try:
                return grouped.get(value, ())
            except TypeError:
                pass
        return tuple([s for s in self.held() if s.value is value or s.value == value])

    def by_value(self) -> Optional[dict[Value, tuple[TimelineSegment, ...]]]:
        """The :meth:`held` segments grouped by value, in time order; built
        once and remembered (``None`` when a value is unhashable)."""
        grouped = self._by_value
        if grouped is None:
            lists: dict[Value, list[TimelineSegment]] = {}
            try:
                for segment in self.held():
                    lists.setdefault(segment.value, []).append(segment)
                grouped = {v: tuple(group) for v, group in lists.items()}
            except TypeError:
                grouped = False  # an unhashable value: scan, do not retry
            self._by_value = grouped
        return None if grouped is False else grouped

    def change_points(self) -> list[tuple[Ticks, Value]]:
        """The (time, new value) change list, starting at time 0."""
        length = self._length
        return list(zip(self._times[:length], self._values[:length]))

    def change_times(self) -> list[Ticks]:
        """The times of :meth:`change_points`, with no tuple per change."""
        return self._times[: self._length]

    def change_values(self) -> list[Value]:
        """The new values of :meth:`change_points`, in the same order."""
        return self._values[: self._length]


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


_NO_ROWS: tuple[int, ...] = ()

# The trace keeps each event as ``_WIDTH`` atoms — ints, interned strings,
# ``None`` and the values themselves — appended to one flat list: recording
# leaves no object per event for the collector to count or traverse.  A row
# is named by its offset ``at`` (a multiple of ``_WIDTH``): the indexes hold
# offsets, and ``rows[at : at + _WIDTH]`` are these columns:
(_TIME, _SITE, _KIND, _REF, _V0, _V1, _RULE, _TRIGGER_SITE, _TRIGGER_SEQ, _SEQ,
 _VERSION) = range(11)
_WIDTH = 11
# ``_KIND`` holds ``EventKind._value_`` itself, so kinds compare by identity;
# ``_REF`` is the item's id, interned once per item; ``_RULE`` the rule
# object (shared and long-lived: keeping it adds nothing); ``_V0`` / ``_V1``
# the descriptor's first and last value (``None`` without one); the trigger is
# its identity, ``(_TRIGGER_SITE, _TRIGGER_SEQ)`` — one that is not an event
# of this trace and names none of its rows (``_names_row``) is kept whole in
# ``_foreign``; ``_VERSION`` is the version after the event (its ``new``: the
# number of writes up to and including it; a write's ``old`` is one less).
_FOREIGN = -1

_KINDS = {kind._value_: kind for kind in EventKind}
_ARITY = {kind._value_: kind.value_arity for kind in EventKind}


def _values(kind: str, first: Value, second: Value) -> tuple[Value, ...]:
    """A row's values as the descriptor's tuple."""
    arity = _ARITY[kind]
    return (first,) if arity == 1 else (first, second) if arity else ()


_W = EventKind.WRITE._value_
_WS = EventKind.SPONTANEOUS_WRITE._value_
_P = EventKind.PERIODIC._value_
# Recording tests ``kind is _WRITE or kind is _SPONTANEOUS_WRITE`` instead of
# the ``is_write`` property: it runs once per event, and a Python-level
# property call is a measurable fraction of the whole record path.
_WRITE = EventKind.WRITE
_SPONTANEOUS_WRITE = EventKind.SPONTANEOUS_WRITE
_new = object.__new__


class ExecutionTrace:
    """The recorded event sequence of one scenario run.

    The trace owns the authoritative interpretation of the traced items:
    callers record *what happened* (site + descriptor + provenance) and the
    trace derives the ``old``/``new`` interpretations from its own rows, so
    valid-execution properties 2 and 3 hold by construction;
    :func:`validate_trace_naive` re-checks them over the views.

    Each event is kept as a row of atoms (see ``_TIME`` … ``_VERSION``), not
    as objects: the :class:`Event` that :meth:`record` returns is the
    caller's to dispatch and pass on as a trigger, and the trace does not
    keep it.  Readers get views built from the rows on demand
    (:attr:`events`, :meth:`events_of_kind`, :meth:`writes_to`,
    :attr:`generated_events`); the indexed validator and :class:`Timeline`
    read the rows themselves, and so do the interpretations (:class:`_State`).

    Recording also maintains the query indexes (per-item writes, per-kind
    and per-(kind, family) row lists, per-family ref sets), so queries
    touch only the events they return.
    """

    def __init__(self) -> None:
        self._rows: list = []  # ``_WIDTH`` atoms per event
        self._every: tuple[Event, ...] = ()  # the views :attr:`events` built
        self._seeded: dict[DataItemRef, Value] = {}
        self.horizon: Ticks = 0
        # -- interned once per item: its id, write list and family rows --
        self._ref_ids: dict[DataItemRef, int] = {}
        self._refs: list[DataItemRef] = []
        self._writes: list[list[int]] = []  # per ref id: its writes (offsets)
        self._store = _Store(self)
        self._current = _State(self._store, 0, 0)  # the state after the last row
        self._family_rows: list[dict[str, list[int]]] = []  # per ref id
        # -- record-time indexes, of row offsets --
        self._by_kind: dict[str, list[int]] = {}
        self._by_family: dict[str, dict[str, list[int]]] = {}
        self._family_refs: dict[str, set[DataItemRef]] = {}
        self._family_sorted: dict[str, tuple[int, list[DataItemRef]]] = {}
        self._generated: list[int] = []
        self._identities: dict[tuple[str, int], int] = {}  # (site, seq) -> at
        self._identified = 0  # offsets below it are in ``_identities``
        self._foreign: dict[int, Event] = {}  # at -> the row's foreign trigger
        self._timelines: dict[DataItemRef, Timeline] = {}  # the last handed out
        # The guarantee checkers' family-pair timeline lists and timelines
        # (:func:`repro.core.guarantees.base.paired_timelines`).
        self._pairings: dict = {}
        # -- instrumentation --
        self._timeline_extend_steps = 0
        self._timeline_builds = 0
        self._timeline_cache_hits = 0

    # -- recording -----------------------------------------------------------

    def seed(self, ref: DataItemRef, value: Value) -> None:
        """Set an item's initial (time-0) value without recording an event.

        Must be called before any event is recorded.
        """
        if self._rows:
            raise TraceError("cannot seed a trace after events were recorded")
        self._seeded[ref] = value
        if ref not in self._ref_ids:
            self._intern(ref)
        self._timelines.pop(ref, None)
        self._pairings.clear()

    def _intern(self, ref: DataItemRef) -> int:
        """Give ``ref`` its id: its write list and its family's rows."""
        ref_id = self._ref_ids[ref] = len(self._refs)
        self._refs.append(ref)
        self._writes.append([])
        family = ref.name
        self._family_refs.setdefault(family, set()).add(ref)
        self._family_rows.append(self._by_family.setdefault(family, {}))
        return ref_id

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

        Returns the event for the caller to dispatch and pass on as a
        trigger; it holds the caller's own ``desc`` and ``trigger``, and the
        trace keeps only its row.

        ``seq`` preserves an explicit sequence number when re-recording an
        event numbered elsewhere, e.g. replaying a trace with planted
        faults: event identity is ``(site, seq)``, so the copy must keep
        the original numbering for provenance lookups to resolve.  Passing
        it never advances the global event counter.
        """
        rows = self._rows
        if rows and time < rows[-_WIDTH]:
            raise TraceError(
                f"event at {time} recorded after event at {rows[-_WIDTH]}"
            )
        old = new = self._current
        kind = desc.kind
        key = kind._value_
        item = desc.item
        values = desc.values
        at = len(rows)
        if item is None:
            ref = None
        else:
            ref = self._ref_ids.get(item)
            if ref is None:  # :meth:`_intern`, inline: no frame per new item
                ref = self._ref_ids[item] = len(self._refs)
                self._refs.append(item)
                self._writes.append([])
                self._family_refs.setdefault(item.name, set()).add(item)
                self._family_rows.append(self._by_family.setdefault(item.name, {}))
            if kind is _WRITE or kind is _SPONTANEOUS_WRITE:
                # The next version's view, built through its slots: no
                # ``__init__`` frame on the record path.
                new = self._current = _new(_State)
                new._store = self._store
                new.version = old.version + 1
                new._end = at + _WIDTH
                new._cache = None
                self._writes[ref].append(at)
            indexed = self._family_rows[ref].get(key)
            if indexed is None:
                indexed = self._family_rows[ref][key] = []
            indexed.append(at)
        if seq is None:
            seq = _numbering._next_seq
            _numbering._next_seq = seq + 1
        # Built through its slots: the generated frozen ``__init__`` sets
        # every field through ``object.__setattr__``, ~2.5x the cost.
        event = _new(Event)
        _set_time(event, time)
        _set_site(event, site)
        _set_desc(event, desc)
        _set_old(event, old)
        _set_new(event, new)
        _set_rule(event, rule)
        _set_trigger(event, trigger)
        _set_seq(event, seq)
        indexed = self._by_kind.get(key)
        if indexed is None:
            indexed = self._by_kind[key] = []
        indexed.append(at)
        if trigger is None:
            trigger_site = trigger_seq = None
            if rule is not None:
                self._generated.append(at)
        else:
            trigger_site, trigger_seq = trigger.site, trigger.seq
            if trigger.new._store is not self._store and not self._names_row(trigger):
                self._foreign[at] = trigger
            self._generated.append(at)
        # ``_V1`` repeats a one-value descriptor's value: one test, no slice.
        if values:
            rows += (
                time, site, key, ref, values[0], values[-1],
                rule, trigger_site, trigger_seq, seq, new.version,
            )
        else:
            rows += (
                time, site, key, ref, None, None,
                rule, trigger_site, trigger_seq, seq, new.version,
            )
        if time > self.horizon:
            self.horizon = time
        return event

    def _names_row(self, event: Event) -> bool:
        """Whether ``event`` is the row ``_trigger_at``'s fast path finds for
        it, atom for atom; a copy that disagrees with its row stays foreign."""
        rows, seq, desc = self._rows, event.seq, event.desc
        at = (seq - rows[_SEQ]) * _WIDTH if rows else -1
        if not 0 <= at < len(rows):
            return False
        ref, values = rows[at + _REF], desc.values or (None,)
        return (
            rows[at + _SEQ] == seq and rows[at + _SITE] == event.site
            and rows[at + _TIME] == event.time
            and rows[at + _KIND] is desc.kind._value_
            and (desc.item is None if ref is None else self._refs[ref] == desc.item)
            and rows[at + _V0] == values[0] and rows[at + _V1] == values[-1]
        )

    def _trigger_at(self, at: int) -> int:
        """The offset of row ``at``'s trigger, or ``_FOREIGN`` (``_foreign``).

        Events numbered as recorded sit ``seq - first seq`` rows in; anything
        else (replays, merged numbering) is found by ``(site, seq)`` in an
        index that only this lookup builds, so recording pays nothing."""
        if at in self._foreign:
            return _FOREIGN
        rows = self._rows
        site, seq = rows[at + _TRIGGER_SITE], rows[at + _TRIGGER_SEQ]
        found = (seq - rows[_SEQ]) * _WIDTH
        if (
            0 <= found < at
            and rows[found + _SEQ] == seq
            and rows[found + _SITE] == site
        ):
            return found
        identities = self._identities
        for other in range(self._identified, len(rows), _WIDTH):
            identities.setdefault((rows[other + _SITE], rows[other + _SEQ]), other)
        self._identified = len(rows)
        return identities[site, seq]

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
    def events(self) -> EventViews:
        """All recorded events, in order (a read-only snapshot of views)."""
        return EventViews(self, None, len(self))

    @property
    def seeded(self) -> Mapping[DataItemRef, Value]:
        """The seeded initial values (read-only view)."""
        return MappingProxyType(self._seeded)

    @property
    def generated_events(self) -> EventViews:
        """Events carrying provenance (a rule and/or trigger), in order."""
        return EventViews(self, self._generated, len(self._generated))

    def __len__(self) -> int:
        return len(self._rows) // _WIDTH

    def _candidates(self, tmpl: Template) -> Sequence[int]:
        """The indexed superset of rows that can match ``tmpl``."""
        if tmpl.kind is EventKind.FALSE:
            return _NO_ROWS
        family = tmpl.dispatch_family
        if family is None:
            # Item-less (P) or family-wildcard template: every event of the
            # kind must be consulted.
            return self._by_kind.get(tmpl.kind._value_, _NO_ROWS)
        by_kind = self._by_family.get(family)
        if by_kind is None:
            return _NO_ROWS
        return by_kind.get(tmpl.kind._value_, _NO_ROWS)

    def _views(self, offsets: Sequence[int]) -> Iterator[Event]:
        """Views of the rows at ``offsets`` (as they are now), sharing one
        viewer."""
        return map(_Viewer(self), offsets[:])

    def events_matching(self, tmpl: Template) -> Iterator[tuple[Event, Bindings]]:
        """All (event, matching interpretation) pairs for a template."""
        for event in self._views(self._candidates(tmpl)):
            bindings = match_desc(tmpl, event.desc)
            if bindings is not None:
                yield event, bindings

    def events_of_kind(self, kind: EventKind) -> Iterator[Event]:
        """All events with the given descriptor kind."""
        return self._views(self._by_kind.get(kind._value_, _NO_ROWS))

    def writes_to(self, ref: DataItemRef) -> Iterator[Event]:
        """All (generated or spontaneous) writes to ``ref``, in order."""
        ref_id = self._ref_ids.get(ref)
        return self._views(_NO_ROWS if ref_id is None else self._writes[ref_id])

    def timeline(self, ref: DataItemRef) -> Timeline:
        """The value history of ``ref`` over this trace (:meth:`timelines`)."""
        return self.timelines((ref,))[0]

    def timelines(self, refs: Iterable[DataItemRef]) -> list[Timeline]:
        """The value histories of ``refs``, in one loop: no frame per item.
        Incremental: the trace keeps the last timeline handed out per item,
        hands it out again while nothing changed, and folds later writes
        into its arrays past its ``_length``, collapsing per write as
        :class:`Timeline` does (copied before a change it would see)."""
        views, ref_ids, rows, horizon = (
            self._timelines, self._ref_ids, self._rows, self.horizon
        )
        found: list[Timeline] = []
        for ref in refs:
            view = views.get(ref)
            if view is None:
                times, values, consumed = [0], [self._seeded.get(ref, MISSING)], 0
            else:
                times, values, consumed = view._times, view._values, view._consumed
            ref_id = ref_ids.get(ref)
            writes = _NO_ROWS if ref_id is None else self._writes[ref_id]
            self._timeline_extend_steps += len(writes) - consumed
            for at in writes[consumed:]:
                time = rows[at]
                value = rows[at + _V1]  # the value written (``_State``)
                if times[-1] != time:
                    if values[-1] != value:
                        times.append(time)
                        values.append(value)
                    continue
                collapses = len(times) > 1 and values[-2] == value
                if not collapses and values[-1] == value:
                    continue
                if view is not None and view._length >= len(times):
                    times, values, view = list(times), list(values), None
                if collapses:
                    times.pop()
                    values.pop()
                else:
                    values[-1] = value
            if (
                view is None
                or view._length != len(times)
                or view.horizon != max(horizon, times[-1])
            ):
                view = views[ref] = _new(Timeline)
                view._times, view._values, view._length = times, values, len(times)
                view.horizon = max(horizon, times[-1])
                view._held = view._by_value = None
                view._queries = 0
                self._timeline_builds += 1
            else:
                self._timeline_cache_hits += 1
            view._consumed = len(writes)
            found.append(view)
        return found

    def value_at(self, ref: DataItemRef, time: Ticks) -> Value:
        """Value of ``ref`` at ``time`` (MISSING before any seed/write)."""
        return self.timeline(ref).value_at(time)

    def current_value(self, ref: DataItemRef) -> Value:
        """Value of ``ref`` right now — O(1), no timeline construction: the
        value in the row of its last write, else its seed."""
        ref_id = self._ref_ids.get(ref)
        writes = _NO_ROWS if ref_id is None else self._writes[ref_id]
        if writes:
            return self._rows[writes[-1] + _V1]
        return self._seeded.get(ref, MISSING)

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
        seeded, refs = self._seeded, self._refs
        unseeded = [r for r, w in zip(refs, self._writes) if w and r not in seeded]
        return {
            "events_recorded": len(self),
            "items_tracked": len(seeded) + len(unseeded),  # seeded or written
            "state_versions": self._current.version,
            "interpretation_materializations": self._store.materializations,
            "timeline_extend_steps": self._timeline_extend_steps,
            "timeline_builds": self._timeline_builds,
            "timeline_cache_hits": self._timeline_cache_hits,
        }


class _Store:
    """What a trace's state views read: its rows and item tables (the
    trace's own containers), without the trace.  Views point here, not at
    the trace, so a trace that keeps views (its current state, the views
    :attr:`ExecutionTrace.events` built) is in no reference cycle and goes
    as soon as its last reference does, collector or not."""

    __slots__ = ("rows", "refs", "writes", "ref_ids", "seeded", "materializations")

    def __init__(self, trace: ExecutionTrace) -> None:
        self.rows, self.refs, self.writes = trace._rows, trace._refs, trace._writes
        self.ref_ids, self.seeded = trace._ref_ids, trace._seeded
        self.materializations = 0  # full mappings built by ``_State``


class _State(Interpretation):
    """A trace's state at ``version`` (the number of writes so far), read
    from its rows below offset ``_end``: an item's value is the one in its
    last write row there (one bisect of its write list), else its seed.
    The trace keeps no other record of state.  Two views of one trace at
    one version are equal; the full mapping is built (counted, and kept)
    only to iterate, hash or compare with any other interpretation."""

    __slots__ = ("_store", "version", "_end", "_cache")

    def __init__(self, store: _Store, version: int, end: int) -> None:
        self._store, self.version, self._end, self._cache = store, version, end, None

    @property
    def _values(self) -> dict[DataItemRef, Value]:  # type: ignore[override]
        cache = self._cache
        if cache is None:
            store, end = self._store, self._end
            store.materializations += 1
            cache = dict(store.seeded)
            for ref, writes in zip(store.refs, store.writes):
                if writes and writes[0] < end:
                    cache[ref] = store.rows[writes[bisect_left(writes, end) - 1] + _V1]
            self._cache = cache
        return cache

    def __getitem__(self, ref: DataItemRef) -> Value:
        store = self._store
        ref_id = store.ref_ids.get(ref)
        if ref_id is not None:
            writes = store.writes[ref_id]
            index = bisect_left(writes, self._end)
            if index:
                return store.rows[writes[index - 1] + _V1]
        return store.seeded[ref]

    def __eq__(self, other: object) -> bool:
        if other is self or (
            isinstance(other, _State)
            and other._store is self._store
            and other.version == self.version
        ):
            return True
        return Interpretation.__eq__(self, other)

    __hash__ = Interpretation.__hash__


class _Viewer:
    """Builds the :class:`Event` view of a trace row, each row once: a view's
    trigger is the view of its trigger's row (or the foreign object it was
    recorded with), and views of one version share one :class:`_State` (the
    latest version's is the trace's own), so consecutive views chain by
    identity."""

    __slots__ = ("trace", "built", "versions")

    def __init__(self, trace: ExecutionTrace) -> None:
        self.trace = trace
        self.built: dict[int, Event] = {}
        self.versions: dict[int, _State] = {}

    def __call__(self, at: int) -> Event:
        built = self.built
        event = built.get(at)
        if event is None:
            trace = self.trace
            # The unbuilt rows up the trigger chain, then built from the top
            # (a long chain costs no recursion); ``event`` is the top's
            # trigger: none, foreign or built.
            chain = [at]
            while trace._rows[at + _TRIGGER_SEQ] is not None:
                source = trace._trigger_at(at)
                if source == _FOREIGN:
                    event = trace._foreign[at]
                    break
                event = built.get(source)
                if event is not None:
                    break
                chain.append(at := source)
            for at in reversed(chain):
                event = built[at] = self._build(at, event)
        return event

    def _state(self, version: int, end: int) -> _State:
        """The view of ``version``, read from the rows below ``end``."""
        view = self.versions.get(version)
        if view is None:
            view = self.trace._current
            if view.version != version:
                view = _State(self.trace._store, version, end)
            self.versions[version] = view
        return view

    def _build(self, at: int, trigger: Optional[Event]) -> Event:
        trace = self.trace
        time, site, kind, ref, first, second, rule, __, __, seq, version = (
            trace._rows[at : at + _WIDTH]
        )
        desc = _new(EventDesc)
        _set_kind(desc, _KINDS[kind])
        _set_item(desc, None if ref is None else trace._refs[ref])
        _set_values(desc, _values(kind, first, second))
        new = self._state(version, at + _WIDTH)
        event = _new(Event)
        _set_time(event, time)
        _set_site(event, site)
        _set_desc(event, desc)
        _set_old(
            event, self._state(version - 1, at) if kind is _W or kind is _WS else new
        )
        _set_new(event, new)
        _set_rule(event, rule)
        _set_trigger(event, trigger)
        _set_seq(event, seq)
        return event


class EventViews(tuple):
    """A read-only tuple of a trace's events, as views built on demand.

    ``len()`` is O(1) and builds nothing — a run may count its events
    inside a timed phase.  The first element access builds every view once
    (one :class:`_Viewer`) and keeps them, so the views of one snapshot
    chain by identity.  A snapshot is pinned at its length: events recorded
    later are not in it.
    """

    def __new__(
        cls, trace: ExecutionTrace, offsets: Optional[list[int]], length: int
    ) -> "EventViews":
        self = tuple.__new__(cls)
        self._trace, self._offsets, self._length = trace, offsets, length
        self._built: Optional[tuple[Event, ...]] = None
        return self

    def _views(self) -> tuple[Event, ...]:
        built = self._built
        if built is None:
            trace, offsets = self._trace, self._offsets
            if offsets is not None:
                built = tuple(map(_Viewer(trace), offsets[: self._length]))
            elif len(trace._every) == self._length:  # every row: built before
                built = trace._every
            else:
                offsets = range(0, self._length * _WIDTH, _WIDTH)
                built = trace._every = tuple(map(_Viewer(trace), offsets))
            self._built = built
        return built

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._views()[index]

    def __iter__(self) -> Iterator[Event]:
        return iter(self._views())

    def __contains__(self, event: object) -> bool:
        return event in self._views()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventViews):
            other = other._views()
        return self._views() == other

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self._views())

    def __repr__(self) -> str:
        return repr(self._views())

    def __reduce__(self):
        return tuple, (self._views(),)

    def index(self, event: Event, *bounds: int) -> int:
        return self._views().index(event, *bounds)

    def count(self, event: Event) -> int:
        return self._views().count(event)


# -- validation (indexed) ----------------------------------------------------


def validate_trace(trace: ExecutionTrace, rules: list[Rule]) -> list[Violation]:
    """Check the seven valid-execution properties of Appendix A.2.

    Properties 2 and 3 (a write changes exactly its item; ``old`` chains
    from the previous ``new``) hold by construction, the interpretations
    being read from the rows (:class:`_State`); :func:`validate_trace_naive`
    checks them over the views.  Properties 1, 4 and 5 are checked exactly.
    Property 6 (rule liveness) is checked for every LHS match whose RHS
    steps carry the trivial condition; steps with non-trivial conditions
    depend on local shell state at firing time, which the trace does not
    retain, so a missing event for such a step is not reported (it may
    legitimately have been suppressed by its condition).
    Property 7 (in-order processing of related rules) is one scan, O(1) per
    generated event: in time order an event is late iff its trigger precedes
    the latest trigger its (trigger site, site) group saw at a strictly
    earlier event tick.  Each late event is reported once, not once per pair.

    Implementation: properties 1 and 4 are one pass over the trace's rows,
    which also groups each rule's generated rows with their triggers' rows
    in a :class:`_RulePlan`; property 5 checks each rule's rows a column at
    a time (:func:`_provenance`), property 6 reads what it found, property
    7 the same columns.  A view is built only for a flagged event.
    :func:`validate_trace_naive`, the pass-per-property, template-
    interpreting reference over views, is the specification.
    """
    buckets: dict[int, list[Violation]] = {n: [] for n in range(1, 8)}
    plans = {id(rule): _RulePlan(rule) for rule in rules}  # by identity
    flagged: list[tuple[int, str]] = []  # property 5: (row, message)
    ordered: list[int] = []  # rows with a rule and a trigger, for property 7
    sources: list[int] = []  # ... and their triggers' rows
    view = _Viewer(trace)
    view_of = lambda row: view(row * _WIDTH)  # noqa: E731
    rows, foreign = trace._rows, trace._foreign
    columns = _Columns(trace)
    seqs, sites = (columns[_SEQ], columns[_SITE]) if trace._generated else ((), ())
    previous_time, first_seq = (rows[_TIME], rows[_SEQ]) if rows else (0, 0)
    atoms = iter(rows)
    for row, fields in enumerate(zip(*[atoms] * _WIDTH)):
        time, __, kind, __, __, __, rule, t_site, trigger, __, __ = fields
        # Property 1: nondecreasing time.
        if time < previous_time:
            buckets[1].append(Violation(1, "events out of time order", view_of(row)))
        previous_time = time

        # Property 4: spontaneous events carry no provenance.
        if (kind is _WS or kind is _P) and (rule is not None or trigger is not None):
            buckets[4].append(
                Violation(4, "spontaneous event carries rule/trigger", view_of(row))
            )

        # Property 5, below: a generated row joins its rule's plan with its
        # trigger's row, found by ``_trigger_at``'s fast path inline (row
        # numbers, not offsets: no arithmetic allocates an int per row).
        if rule is not None and trigger is None:
            flagged.append((row, "generated event lacks a trigger"))
        elif rule is not None:
            source = trigger - first_seq
            if (
                foreign
                and row * _WIDTH in foreign
                or not 0 <= source < row
                or seqs[source] != trigger
                or sites[source] != t_site
            ):
                source = trace._trigger_at(row * _WIDTH)
                if source == _FOREIGN:
                    source = columns.virtual[row * _WIDTH]
                else:
                    source //= _WIDTH
            ordered.append(row)
            sources.append(source)
            plan = plans.get(id(rule))
            if plan is None:
                plan = plans[id(rule)] = _RulePlan(rule)
            plan.rows.append(row)
            plan.sources.append(source)

    # Property 5: a row's violations in check order, the rows in row order.
    for plan in plans.values():
        flagged += _provenance(plan, columns)
    flagged.sort(key=itemgetter(0))
    buckets[5] = [Violation(5, text, view_of(row)) for row, text in flagged]

    # Property 6: rule liveness for unconditional steps.
    buckets[6] = _check_liveness(trace, rules, plans, view, columns)

    # Property 7: related rules fire in order.
    if ordered:
        times = columns[_TIME]
        entries = zip(
            map(columns[_TRIGGER_SITE].__getitem__, ordered),
            map(sites.__getitem__, ordered),
            map(times.__getitem__, sources),
            map(times.__getitem__, ordered),
            ordered,
        )
        buckets[7] = _in_order(entries, view_of)

    return [violation for n in range(1, 8) for violation in buckets[n]]


class _Columns(dict):
    """A trace's rows as columns, each sliced out on first use:
    ``columns[field][row]``.  A trigger recorded elsewhere (``_foreign``)
    is a row too, after the trace's (``virtual``: the offset of the row it
    triggered -> its row), its item after the trace's (``items``)."""

    def __init__(self, trace: ExecutionTrace) -> None:
        self.rows, self.items, self.virtual = trace._rows, trace._refs, {}
        self.recorded = len(trace)
        if trace._foreign:
            self.rows, self.items = list(self.rows), list(self.items)
        for at, event in trace._foreign.items():
            desc, values = event.desc, event.desc.values or (None,)
            self.virtual[at] = len(self.rows) // _WIDTH
            ref = None if desc.item is None else len(self.items)
            self.items.append(desc.item)
            self.rows += (
                event.time, event.site, desc.kind._value_, ref, values[0],
                values[-1], None, None, None, event.seq, None,
            )

    def __missing__(self, field: int) -> list:
        column = self[field] = self.rows[field::_WIDTH]
        return column


class _Side(dict):
    """Some rows' atoms: ``side[field]`` a column of them, gathered on first
    use, and :meth:`atom` their :func:`_shape` pool atoms."""

    def __init__(self, columns: _Columns, rows: list[int]) -> None:
        self.columns, self.rows = columns, rows

    def __missing__(self, field: int) -> list:
        column = self.columns[field]
        found = self[field] = [column[row] for row in self.rows]
        return found

    def atom(self, index: int) -> list:
        """Each row's first value, last value, then item arguments (``None``
        past the last)."""
        if index < 2:
            return self[_V0 + index]
        found = self.get(-index)
        if found is None:
            items, refs, at = self.columns.items, self[_REF], index - 2
            arg = {
                ref: None if ref is None or len(items[ref][1]) <= at
                else items[ref][1][at]
                for ref in set(refs)
            }
            found = self[-index] = list(map(arg.__getitem__, refs))
        return found


def _mask(shape: tuple, own: _Side, given: Optional[_Side], base: int):
    """Which rows of ``own`` fit a :func:`_shape` whose pool atoms below
    ``base`` are ``given``'s: ``None`` when all do, else a bool per row.
    One check is one column, in C: kind, item (per distinct item), each
    constant, each equality."""
    want, family, arity, consts, equal = shape

    def pool(position: int) -> list:
        return given.atom(position) if position < base else own.atom(position - base)

    kinds = own[_KIND]
    checks = []
    if kinds.count(want) != len(kinds):
        checks.append([kind == want for kind in kinds])
    if arity is not None:
        items = own.columns.items
        fits = {
            ref: ref is not None and len(items[ref][1]) == arity
            and (not family or family == items[ref][0])
            for ref in set(own[_REF])
        }
        if not all(fits.values()):
            checks.append(list(map(fits.__getitem__, own[_REF])))
    # ``(make, left, right)``: ``make(left)`` is a fresh iterator per read.
    agreements = [(repeat, value, pool(at)) for at, value in consts]
    agreements += [(iter, pool(earlier), pool(at)) for earlier, at in equal]
    for make, left, right in agreements:
        if not all(map(eq, make(left), right)):
            checks.append(list(map(truth, map(eq, make(left), right))))
    failing = None
    for check in checks:
        failing = list(map(and_, failing or repeat(True), check))
    return failing


def _provenance(plan: _RulePlan, columns: _Columns) -> list[tuple[int, str]]:
    """Property 5 over one rule's rows, a column at a time: the trigger fits
    the LHS, the row some RHS step under it (:func:`_mask`), and trigger
    time <= time <= trigger time + delay.  ``(row, message)`` per
    violation, a row's in check order."""
    own, sources = plan.rows, plan.sources
    if not own:
        return []
    mine, theirs = _Side(columns, own), _Side(columns, sources)
    lhs = _mask(plan.lhs, theirs, None, 0)
    base = 2 + (plan.lhs[2] or 0)  # the trigger's pool atoms come first
    steps = [_mask(step, mine, theirs, base) for step in plan.steps]
    instance = None if None in steps else list(map(any, zip(*steps)))
    lags = list(map(sub, mine[_TIME], theirs[_TIME]))
    if lhs is instance is None and 0 <= min(lags) and max(lags) <= plan.delay:
        if max(sources) < columns.recorded:  # every trigger is this trace's
            plan.triggers = set(sources)
        return []
    flagged = []
    for row, lhs_ok, fits, lag in zip(
        own, lhs or repeat(True), instance or repeat(True), lags
    ):
        if not lhs_ok:
            flagged.append((row, "trigger does not match the rule's LHS"))
            continue
        if not fits:
            message = "event is not an instantiation of any RHS template"
            flagged.append((row, message))
        if lag < 0:
            flagged.append((row, "event precedes its trigger"))
        if lag > plan.delay:
            flagged.append((row, "event exceeds its rule's delay bound"))
    return flagged


def _shape(tmpl: Template, base: int, own: dict, given: dict) -> tuple:
    """``tmpl`` as agreements on atoms at ``base`` of a pool, as ``(first,
    second, *args)``: kind value, family and arity (``None``: any, no item),
    ``(position, constant)`` and ``(earlier, position)`` pairs — a variable's
    position in ``given`` (the trigger's) or its first in ``own``, in
    ``match_desc``'s order.  Shares nothing with :mod:`repro.core.compile`."""
    if tmpl.kind is EventKind.FALSE:
        return None, None, None, (), ()
    args = () if tmpl.item is None else tmpl.item.args
    consts, equal = [], []
    positions = [base + 2 + i for i in range(len(args))] + [base, base + 1]
    for position, term in zip(positions, args + tmpl.values):
        if isinstance(term, Const):
            consts.append((position, term.value))
        elif isinstance(term, Var):
            if term.name in own:
                equal.append((own[term.name], position))
            else:
                own[term.name] = position
                if term.name in given:
                    equal.append((position, given[term.name]))
    family = None if tmpl.item_family == FAMILY_WILDCARD else tmpl.item_family
    arity = None if tmpl.item is None else len(args)
    return tmpl.kind._value_, family, arity, tuple(consts), tuple(equal)


class _RulePlan:
    """What one validation needs of one rule object, derived once: its LHS
    and each RHS step's agreements with it, as :func:`_shape` tuples
    (``steps[i]`` for ``rule.steps[i]``, after the trigger's atoms), and the
    rule's generated rows with their triggers' rows, in row order; and
    ``triggers``, when property 5 found every row clean and every trigger
    one of this trace's rows: those rows.
    """

    __slots__ = ("lhs", "steps", "delay", "rows", "sources", "triggers")

    def __init__(self, rule: Rule) -> None:
        binds: dict[str, int] = {}  # an LHS variable's position
        self.lhs = _shape(rule.lhs, 0, binds, {})
        base = 2 + (self.lhs[2] or 0)
        self.steps = tuple(
            _shape(step.template, base, {}, binds) for step in rule.steps
        )
        self.delay = rule.delay
        self.rows: list[int] = []
        self.sources: list[int] = []
        self.triggers: Optional[set[int]] = None


def _lhs_rows(
    trace: ExecutionTrace, rule: Rule, shape: tuple, shared: dict, columns: _Columns
) -> list[int]:
    """LHS matches at the rule's own site (see :func:`_own_site_matches`),
    collected once per LHS template and site and kept in ``shared``."""
    site = rule.lhs_site
    key = (rule.lhs, site)
    try:
        found = shared.get(key)
    except TypeError:  # an unhashable constant: this rule matches alone
        key, found = None, None
    if found is None:
        rows = [at // _WIDTH for at in trace._candidates(rule.lhs)]
        if site is not None:
            sites = columns[_SITE]
            rows = [row for row in rows if sites[row] == site]
        fits = _mask(shape, _Side(columns, rows), None, 0)
        found = [r * _WIDTH for r in (rows if fits is None else compress(rows, fits))]
        if key is not None:
            shared[key] = found
    return found


def _check_liveness(
    trace: ExecutionTrace,
    rules: list[Rule],
    plans: dict[int, _RulePlan],
    view: _Viewer,
    columns: _Columns,
) -> list[Violation]:
    from repro.core.conditions import TRUE  # local import to avoid cycle noise

    rows = trace._rows
    violations: list[Violation] = []
    shared: dict = {}  # (LHS template, site) -> its rows
    for rule in rules:
        prohibition = rule.is_prohibition
        if not prohibition and rule.condition is not TRUE:
            # The LHS condition read local data we no longer have; skip.
            continue
        plan = plans[id(rule)]
        if prohibition:
            for at in _lhs_rows(trace, rule, plan.lhs, shared, columns):
                violations.append(
                    Violation(
                        6,
                        f"rule {rule.name!r} prohibits this event",
                        view(at),
                    )
                )
            continue
        # When property 5 found each of a single-step rule's rows a clean
        # instance, within [trigger time, + delay], of a trigger of this
        # trace, an obligation is met iff its row triggered one (``met``).
        # Else the rows by their trigger's ``seq``, the site compared on the
        # hit: trigger identity is ``(site, seq)``, never the object (a
        # firing that crossed the wire carries a copy).
        met = plan.triggers if len(rule.steps) == 1 else None
        by_trigger: dict[int, list[int]] = {}
        if met is None and plan.rows:  # the column, sliced on first need
            trigger_seqs = columns[_TRIGGER_SEQ]
            for row in plan.rows:
                by_trigger.setdefault(trigger_seqs[row], []).append(row * _WIDTH)
        steps = [None] if met is not None else [
            compile_fields_matcher(step.template) for step in rule.steps
        ]
        lhs_rows = _lhs_rows(trace, rule, plan.lhs, shared, columns)
        for at in lhs_rows:
            previous_time = rows[at]
            deadline = previous_time + rule.delay
            if deadline > trace.horizon:
                continue  # obligation not yet due at end of trace
            for step, matches in zip(rule.steps, steps):
                if step.condition is not TRUE:
                    break  # later steps' timing depends on this one; stop here
                if met is not None:
                    found = previous_time if at // _WIDTH in met else None
                else:
                    found = _find_generated(
                        trace, by_trigger, at, matches, previous_time, deadline
                    )
                if found is None:
                    violations.append(
                        Violation(
                            6,
                            f"rule {rule.name!r}: no {step.template} within "
                            f"delay after trigger",
                            view(at),
                        )
                    )
                    break
                previous_time = found
    return violations


def _find_generated(
    trace: ExecutionTrace,
    by_trigger: dict[int, list[int]],
    trigger: int,
    matches: Matcher,
    since: Ticks,
    until: Ticks,
) -> Ticks | None:
    """The time of the first row that the row at ``trigger`` generated in
    ``[since, until]`` and that ``matches``."""
    rows = trace._rows
    site = rows[trigger + _SITE]
    for at in by_trigger.get(rows[trigger + _SEQ], ()):
        if rows[at + _TRIGGER_SITE] != site:
            continue  # another site's event that happens to share the seq
        time = rows[at]
        if time < since or time > until:
            continue
        ref = rows[at + _REF]
        if matches(
            rows[at + _KIND],
            None if ref is None else trace._refs[ref],
            rows[at + _V0],
            rows[at + _V1],
        ) is not None:
            return time
    return None


def _in_order(entries: Iterator[tuple], view) -> list[Violation]:
    """Property 7: if two generated events come from *related* rules (same
    LHS site, same RHS site), their order must match their triggers' order.
    One scan over ``(trigger site, site, trigger time, time, key)`` entries
    in time order, one violation (``view(key)``) per late event; see
    :func:`validate_trace`."""
    violations: list[Violation] = []
    marks: dict[tuple[str, str], list] = {}  # group -> [mark holder, candidate]
    for entry in entries:
        source_site, site, source_time, time, key = entry
        mark = marks.get((source_site, site))
        if mark is None:
            mark = marks[source_site, site] = [None, entry]
        first, held = mark
        if held[3] < time:
            if first is None or held[2] > first[2]:
                first = mark[0] = held
            mark[1] = entry
        elif source_time > held[2]:
            mark[1] = entry
        if first is not None and source_time < first[2]:
            message = (
                f"related rules fired out of order (triggers at {first[2]} "
                f"vs {source_time}, events at {first[3]} vs {time})"
            )
            violations.append(Violation(7, message, view(key)))
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
    reference's own copy, sharing nothing with :func:`_provenance`."""
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
