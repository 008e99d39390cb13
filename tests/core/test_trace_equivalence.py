"""Randomized equivalence: indexed trace queries vs the naive reference.

The trace's record-time indexes and the fused validator are pure
optimizations — :class:`ReferenceTraceQueries` and
:func:`validate_trace_naive` (the pre-index full-scan implementations,
retained in :mod:`repro.core.trace`) are the executable specification.
These tests generate random traces — mixed event kinds, parameterized
families, same-instant writes, seeded items, valid and deliberately broken
provenance — and assert query-by-query agreement.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dsl import parse_rule
from repro.core.events import (
    Event,
    EventKind,
    notify_desc,
    periodic_desc,
    read_request_desc,
    read_response_desc,
    spontaneous_write_desc,
    write_desc,
    write_request_desc,
)
from repro.core.interpretations import EMPTY_INTERPRETATION
from repro.core.items import MISSING, item
from repro.core.templates import FALSE_TEMPLATE, Template
from repro.core.terms import FAMILY_WILDCARD, ItemPattern, Var
from repro.core.timebase import seconds
from repro.core.trace import (
    ExecutionTrace,
    ReferenceTraceQueries,
    _check_in_order,
    _check_in_order_naive,
    validate_trace,
    validate_trace_naive,
)

FAMILIES = ("phone", "addr", "flag")
ARGS = ("p0", "p1", "p2", "p3")
SITES = ("hub", "replica1", "replica2")
VALUES = (0, 1, "x", "y", 3.5, MISSING)

RULES = [
    parse_rule("N(phone(n), b) -> [5] WR(addr(n), b)", name="propagate"),
    parse_rule("Ws(addr(n), a, b) -> [3] N(addr(n), b)", name="announce"),
    parse_rule("W(flag(n), b) -> [1] FALSE", name="no-flag-writes"),
]

TEMPLATES = [
    RULES[0].lhs,
    RULES[0].steps[0].template,
    RULES[1].lhs,
    RULES[2].lhs,
    Template(
        EventKind.NOTIFY, ItemPattern(FAMILY_WILDCARD, (Var("n"),)), (Var("b"),)
    ),
    FALSE_TEMPLATE,
]


def _random_desc(rng: random.Random):
    ref = item(rng.choice(FAMILIES), rng.choice(ARGS))
    value = rng.choice(VALUES)
    kind = rng.randrange(7)
    if kind == 0:
        return write_desc(ref, value)
    if kind == 1:
        return spontaneous_write_desc(ref, rng.choice(VALUES), value)
    if kind == 2:
        return notify_desc(ref, value)
    if kind == 3:
        return write_request_desc(ref, value)
    if kind == 4:
        return read_request_desc(ref)
    if kind == 5:
        return read_response_desc(ref, value)
    return periodic_desc(seconds(rng.randint(1, 5)))


def _random_trace(seed: int) -> ExecutionTrace:
    rng = random.Random(seed)
    trace = ExecutionTrace()
    for family in FAMILIES:
        for arg in ARGS:
            if rng.random() < 0.4:
                trace.seed(item(family, arg), rng.choice(VALUES))
    clock = 0
    for _ in range(rng.randint(40, 120)):
        clock += rng.choice((0, 0, seconds(1), seconds(2), seconds(7)))
        site = rng.choice(SITES)
        desc = _random_desc(rng)
        provenance = rng.random()
        rule = trigger = None
        if provenance < 0.25 and trace.events:
            # Random (usually inconsistent) provenance: both validators must
            # flag the same property-4/5/6/7 violations.
            rule = rng.choice(RULES)
            trigger = rng.choice(trace.events)
        event = trace.record(clock, site, desc, rule=rule, trigger=trigger)
        if (
            desc.kind is EventKind.NOTIFY
            and desc.item is not None
            and desc.item.name == "phone"
            and rng.random() < 0.6
        ):
            # A well-formed generated follow-up for the propagation rule, so
            # liveness checking sees satisfied obligations too.
            clock += rng.choice((0, seconds(1), seconds(4)))
            trace.record(
                clock,
                rng.choice(SITES),
                write_request_desc(item("addr", desc.item.args[0]), desc.values[0]),
                rule=RULES[0],
                trigger=event,
            )
    trace.close(clock + seconds(rng.randint(0, 10)))
    return trace


SEEDS = [1, 7, 23, 99, 1234]


@pytest.mark.parametrize("seed", SEEDS)
def test_events_matching_agrees(seed):
    trace = _random_trace(seed)
    reference = ReferenceTraceQueries(trace)
    for tmpl in TEMPLATES:
        indexed = [(e.seq, b) for e, b in trace.events_matching(tmpl)]
        naive = [(e.seq, b) for e, b in reference.events_matching(tmpl)]
        assert indexed == naive, f"template {tmpl}"


@pytest.mark.parametrize("seed", SEEDS)
def test_events_of_kind_and_writes_to_agree(seed):
    trace = _random_trace(seed)
    reference = ReferenceTraceQueries(trace)
    for kind in EventKind:
        indexed = [e.seq for e in trace.events_of_kind(kind)]
        naive = [e.seq for e in reference.events_of_kind(kind)]
        assert indexed == naive, f"kind {kind}"
    for family in FAMILIES:
        for arg in ARGS:
            ref = item(family, arg)
            assert [e.seq for e in trace.writes_to(ref)] == [
                e.seq for e in reference.writes_to(ref)
            ], f"writes_to({ref})"


@pytest.mark.parametrize("seed", SEEDS)
def test_refs_of_family_agrees(seed):
    trace = _random_trace(seed)
    reference = ReferenceTraceQueries(trace)
    for family in FAMILIES + ("nonexistent",):
        assert trace.refs_of_family(family) == reference.refs_of_family(family)


@pytest.mark.parametrize("seed", SEEDS)
def test_timelines_agree(seed):
    trace = _random_trace(seed)
    reference = ReferenceTraceQueries(trace)
    rng = random.Random(seed * 31)
    for family in FAMILIES:
        for arg in ARGS:
            ref = item(family, arg)
            incremental = trace.timeline(ref)
            rebuilt = reference.timeline(ref)
            assert incremental.change_points() == rebuilt.change_points(), ref
            assert incremental.horizon == rebuilt.horizon, ref
            for _ in range(10):
                at = rng.randint(-seconds(2), trace.horizon + seconds(2))
                assert incremental.value_at(at) == rebuilt.value_at(at)
            assert list(incremental.segments()) == list(rebuilt.segments())


@pytest.mark.parametrize("seed", SEEDS)
def test_timelines_agree_interleaved_with_recording(seed):
    """Incremental timelines must agree mid-trace, not just at the end."""
    rng = random.Random(seed)
    trace = ExecutionTrace()
    ref = item("phone", "p0")
    clock = 0
    for index in range(60):
        clock += rng.choice((0, seconds(1), seconds(3)))
        trace.record(
            clock,
            "hub",
            spontaneous_write_desc(
                ref, trace.current_value(ref), rng.choice(VALUES)
            ),
        )
        if index % 5 == 0:
            incremental = trace.timeline(ref)
            rebuilt = ReferenceTraceQueries(trace).timeline(ref)
            assert incremental.change_points() == rebuilt.change_points()


def _split(violations):
    """(Properties 1-6 verbatim, the event seqs property 7 flags)."""
    exact = [
        (v.property_number, v.message, v.event.seq if v.event else None)
        for v in violations
        if v.property_number != 7
    ]
    return exact, [v.event.seq for v in violations if v.property_number == 7]


@pytest.mark.parametrize("seed", SEEDS)
def test_validator_agrees_with_naive(seed):
    """Property 7 agrees on *which events* are late: the scan reports each
    once, the pairwise reference once per inverted pair it is the late
    member of."""
    trace = _random_trace(seed)
    exact, late = _split(validate_trace(trace, RULES))
    naive_exact, naive_late = _split(validate_trace_naive(trace, RULES))
    assert exact == naive_exact
    assert len(late) == len(set(late))
    assert set(late) == set(naive_late)


def _seqs(violations):
    return {v.event.seq for v in violations}


_BLANK = {
    "desc": periodic_desc(1),
    "old": EMPTY_INTERPRETATION,
    "new": EMPTY_INTERPRETATION,
}


def _generated(triples):
    """Hand-built generated events from (group, trigger tick, tick) triples."""
    return [
        Event(
            time=tick,
            site=f"dst{group // 2}",
            rule=RULES[0],
            trigger=Event(time=trigger_tick, site=f"src{group % 2}", **_BLANK),
            **_BLANK,
        )
        for group, trigger_tick, tick in triples
    ]


# Few distinct ticks over many events: most pairs tie on one side or both.
_TRIPLES = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(0, 6)),
    max_size=40,
)


@given(triples=_TRIPLES)
@settings(max_examples=300, deadline=None)
def test_in_order_scan_agrees_with_pairwise(triples):
    shuffled = _generated(triples)
    assert bool(_check_in_order(shuffled)) == bool(_check_in_order_naive(shuffled))
    ordered = sorted(shuffled, key=lambda e: e.time)
    late = _check_in_order(ordered)
    assert len(late) == len(_seqs(late))
    assert _seqs(late) == _seqs(_check_in_order_naive(ordered))


def test_validator_agrees_on_clean_trace():
    trace = ExecutionTrace()
    x = item("phone", "p0")
    clock = 0
    for index in range(20):
        clock += seconds(1)
        trace.record(
            clock, "hub",
            spontaneous_write_desc(x, trace.current_value(x), index),
        )
    trace.close(clock)
    assert validate_trace(trace, []) == []
    assert validate_trace_naive(trace, []) == []
