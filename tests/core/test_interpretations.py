"""The specification of the trace's ``old``/``new`` views.

A trace keeps no copy of its state: an event's ``old``/``new`` are views
that read an item's value from the row of its last write (else its seed).
This differential holds every view a trace hands out — the events
``record`` returns, the :attr:`~ExecutionTrace.events` snapshot, the
views of :meth:`~ExecutionTrace.writes_to` and
:attr:`~ExecutionTrace.generated_events` and their triggers — to a dict
folded independently from the events' descriptors and the trace's seeds,
item by item, over random traces with seeded items, no-op writes,
``MISSING`` writes, family-parameterized refs and triggers that crossed
the codec or came from another trace.  It is what checks valid-execution
properties 2 and 3, which the indexed validator takes as given.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dsl import parse_rule
from repro.core.errors import TraceError
from repro.core.events import (
    EventKind,
    notify_desc,
    periodic_desc,
    spontaneous_write_desc,
    write_desc,
)
from repro.core.interpretations import EMPTY_INTERPRETATION, Interpretation
from repro.core.items import MISSING, item
from repro.core.timebase import seconds
from repro.core.trace import ExecutionTrace
from repro.runtime.codec import decode_event, encode_event

REFS = (
    item("X"),
    item("Y"),
    item("phone", "p1"),
    item("phone", "p2"),
    item("addr", "p1"),
    item("addr", 2),
)
#: Never seeded, written or named by an event: unspecified in every view.
ABSENT = (item("Z"), item("phone", "p9"))
VALUES = (0, 1, "a", 3.5, MISSING)
ANNOUNCE = parse_rule("Ws(X, a, b) -> [5] N(X, b)", name="announce")

_SAME = -1  # a value index: the item's current value (a no-op write)

seeds = st.dictionaries(
    st.sampled_from(range(len(REFS))), st.sampled_from(range(len(VALUES)))
)
steps = st.lists(
    st.tuples(
        st.sampled_from(("W", "Ws", "N", "P")),  # what happens
        st.sampled_from(range(len(REFS))),
        st.sampled_from((*range(len(VALUES)), _SAME)),
        st.sampled_from((None, "local", "wire", "other")),  # the trigger
        st.sampled_from((0, 0, seconds(1))),  # time step
    ),
    max_size=40,
)


def _record(trace: ExecutionTrace, seeded: dict, script: list) -> list:
    """Record ``script`` on a trace seeded with ``seeded``; the events
    ``record`` returned."""
    other = ExecutionTrace()
    for ref, value in seeded.items():
        trace.seed(ref, value)
    recorded, clock = [], 0
    for kind, ref_at, value_at, source, step in script:
        ref, clock = REFS[ref_at], clock + step
        value = trace.current_value(ref) if value_at == _SAME else VALUES[value_at]
        if kind == "W":
            desc = write_desc(ref, value)
        elif kind == "Ws":
            desc = spontaneous_write_desc(ref, trace.current_value(ref), value)
        elif kind == "N":
            desc = notify_desc(ref, value)
        else:
            desc = periodic_desc(seconds(5))
        rule = trigger = None
        if source is not None and recorded and kind != "P":
            rule, trigger = ANNOUNCE, recorded[-1]
            if source == "wire":
                trigger = decode_event(encode_event(trigger))
            elif source == "other":
                # Numbered apart (``seq``), so this trace's numbering stays
                # dense and a codec copy still resolves to its row.
                trigger = other.record(
                    clock, "elsewhere", write_desc(ref, value), seq=0
                )
        recorded.append(trace.record(clock, "s", desc, rule=rule, trigger=trigger))
    trace.close(clock + seconds(1))
    return recorded


def _fold(seeded: dict, events) -> list[dict]:
    """The state before the first event and after each one, folded from the
    descriptors alone."""
    state = dict(seeded)
    states = [dict(state)]
    for event in events:
        desc = event.desc
        if desc.kind is EventKind.WRITE:
            state[desc.item] = desc.values[0]
        elif desc.kind is EventKind.SPONTANEOUS_WRITE:
            state[desc.item] = desc.values[1]
        states.append(dict(state))
    return states


def _same_items(view, expected: dict) -> None:
    """``view`` agrees with ``expected`` item by item (no materialization)."""
    for ref in REFS + ABSENT:
        assert (ref in view) is (ref in expected), ref
        missing = object()
        found = view.get(ref, missing)
        if ref in expected:
            want = expected[ref]
            assert found is want if want is MISSING else found == want, ref
        else:
            assert found is missing, ref


@settings(max_examples=150, deadline=None)
@given(seeds, steps)
def test_every_view_agrees_with_the_folded_state(seed_indexes, script):
    seeded = {REFS[r]: VALUES[v] for r, v in seed_indexes.items()}
    trace = ExecutionTrace()
    recorded = _record(trace, seeded, script)
    states = _fold(seeded, recorded)
    at = {event.seq: index for index, event in enumerate(recorded)}
    snapshot = list(trace.events)
    assert [e.seq for e in snapshot] == [e.seq for e in recorded]

    views = list(recorded) + snapshot
    for ref in REFS:
        views += trace.writes_to(ref)
    generated = list(trace.generated_events)
    views += generated
    views += [e.trigger for e in generated if e.trigger.seq in at]
    for event in views:
        index = at[event.seq]
        _same_items(event.old, states[index])
        _same_items(event.new, states[index + 1])
    # Item lookups, and equality at one version, build no full mapping.
    for mine, theirs in zip(recorded, snapshot):
        assert mine.old == theirs.old and mine.new == theirs.new
    assert trace.stats()["interpretation_materializations"] == 0

    for ref in REFS + ABSENT:
        assert trace.current_value(ref) == states[-1].get(ref, MISSING)
    writes = sum(e.desc.kind.is_write for e in recorded)
    stats = trace.stats()
    assert stats["state_versions"] == writes
    assert stats["items_tracked"] == len(states[-1])

    # The whole mapping: iteration, length, equality and hash.
    for index, event in enumerate(snapshot):
        before, after = states[index], states[index + 1]
        for view, expected in ((event.old, before), (event.new, after)):
            plain = Interpretation(expected)
            assert dict(view) == expected and len(view) == len(expected)
            assert view == plain and plain == view and hash(view) == hash(plain)
            assert (view == EMPTY_INTERPRETATION) is (not expected)


@settings(max_examples=50, deadline=None)
@given(seeds, steps)
def test_views_chain_and_equal_states_compare_equal(seed_indexes, script):
    seeded = {REFS[r]: VALUES[v] for r, v in seed_indexes.items()}
    trace = ExecutionTrace()
    _record(trace, seeded, script)
    events = list(trace.events)
    states = _fold(seeded, events)
    for previous, event in zip(events, events[1:]):
        assert event.old is previous.new
    for event in events:
        assert (event.new is event.old) is (not event.desc.kind.is_write)
    # Views of two versions are equal iff their states are (no-op writes).
    for i, first in enumerate(events[:8]):
        for j, second in enumerate(events):
            assert (first.new == second.new) is (states[i + 1] == states[j + 1])


# -- named cases: a trace's state views against the dict-backed form ----------

X, Y, Z = item("X"), item("Y"), item("Z")


def _write(trace: ExecutionTrace, ref, value):
    """Record ``W(ref, value)`` one tick after the last event; its ``new``."""
    return trace.record(trace.horizon + 1, "s", write_desc(ref, value)).new


class TestJournalViews:
    """Each write's state view behaves as the dict-backed interpretation of
    the same mapping, and stays as it was when later writes land."""

    def test_view_matches_dict_backed_equivalent(self, trace):
        trace.seed(X, 1)
        _write(trace, Y, "a")
        view = _write(trace, X, 2)
        plain = Interpretation({X: 2, Y: "a"})
        assert view == plain and plain == view
        assert dict(view) == dict(plain) and len(view) == 2
        assert view[X] == 2 and view[Y] == "a"
        assert X in view and Z not in view
        assert hash(view) == hash(plain)

    def test_snapshot_isolation_old_views_stay_frozen(self, trace):
        trace.seed(X, 1)
        v0 = trace.record(0, "s", notify_desc(X, 1)).new
        v1 = _write(trace, X, 2)
        _write(trace, Y, 3)
        last = _write(trace, X, 4)
        assert v0[X] == 1 and Y not in v0
        assert v1[X] == 2 and Y not in v1
        assert last[X] == 4 and last[Y] == 3
        assert dict(v0) == {X: 1} and dict(v1) == {X: 2}

    def test_current_view_interned_until_next_write(self, trace):
        first = _write(trace, X, 1)
        assert trace.record(trace.horizon, "s", notify_desc(X, 1)).new is first
        assert _write(trace, X, 2) is not first

    def test_missing_vs_unspecified(self, trace):
        trace.seed(X, MISSING)
        view = trace.record(1, "s", notify_desc(Y, 0)).new
        assert X in view and view[X] is MISSING
        assert Y not in view
        with pytest.raises(KeyError):
            view[Y]

    def test_seed_after_write_rejected(self, trace):
        _write(trace, X, 1)
        with pytest.raises(TraceError):
            trace.seed(Y, 2)

    def test_same_trace_equality_sees_through_noop_writes(self, trace):
        early = _write(trace, X, 1)
        late = _write(trace, X, 1)  # no-op: a new version, the same state
        assert early is not late and early == late
        assert early != _write(trace, X, 2)

    def test_updated_matches_dict_backed(self, trace):
        _write(trace, X, 1)
        view = _write(trace, Y, 2)
        assert view.updated(X, 9) == Interpretation({X: 9, Y: 2})
        assert view.updated(Z, 0) == Interpretation({X: 1, Y: 2, Z: 0})
        # the original is untouched (interpretations are immutable)
        assert view == Interpretation({X: 1, Y: 2})

    def test_versioned_view_usable_as_dict_key(self, trace):
        table = {_write(trace, X, 1): "hit"}
        assert table[Interpretation({X: 1})] == "hit"

    def test_parameterized_refs(self, trace):
        a, b = item("phone", "p1"), item("phone", "p2")
        _write(trace, a, "555")
        view = _write(trace, b, "666")
        assert view[a] == "555" and view[b] == "666"
        assert set(view) == {a, b}


class TestMaterializationAccounting:
    def test_item_access_never_materializes(self, trace):
        for index in range(50):
            view = _write(trace, item("f", str(index)), index)
        ref = item("f", "7")
        assert view[ref] == 7 and ref in view
        assert trace.stats()["interpretation_materializations"] == 0
        assert len(view) == 50  # the whole mapping, built once
        assert trace.stats()["interpretation_materializations"] == 1

    def test_foreign_comparison_materializes_once(self, trace):
        view = _write(trace, X, 1)
        plain = Interpretation({X: 1})
        assert view == plain and view == plain
        assert trace.stats()["interpretation_materializations"] == 1

    def test_empty_interpretation_comparisons(self, trace):
        assert trace.record(0, "s", notify_desc(X, 1)).new == EMPTY_INTERPRETATION
        assert _write(trace, X, 1) != EMPTY_INTERPRETATION


class TestVersionedViewType:
    def test_view_is_an_interpretation(self, trace):
        assert isinstance(_write(trace, X, 1), Interpretation)

    def test_pinned_version_views(self, trace):
        _write(trace, X, 1)
        _write(trace, X, 2)
        first, second = trace.events
        assert first.old == EMPTY_INTERPRETATION
        assert first.new[X] == 1 and second.old is first.new
        assert second.new[X] == 2
