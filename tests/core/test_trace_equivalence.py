"""Randomized equivalence: indexed trace queries vs the naive reference.

The trace's record-time indexes and the fused validator are pure
optimizations — :class:`ReferenceTraceQueries` and
:func:`validate_trace_naive` (the pre-index full-scan implementations,
retained in :mod:`repro.core.trace`) are the executable specification.
These tests generate random traces — mixed event kinds, parameterized
families, same-instant writes, seeded items, valid and deliberately broken
provenance — and assert query-by-query agreement.

``validate_trace_naive`` interprets rule templates through its own
provenance check (``match_desc`` per event), the indexed validator through
positional agreements derived from the templates and a per-rule trigger
index, so the planted
provenance faults of :class:`TestPlantedProvenance` are differential too:
each names the property it must trip, on both validators, with the same
flagged events.
"""

import dataclasses
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
from repro.core import trace as trace_module
from repro.core.trace import (
    ExecutionTrace,
    ReferenceTraceQueries,
    _check_in_order_naive,
    _in_order,
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


def _check_in_order(generated_events):
    """The indexed property-7 scan over event objects, sorted by time first
    when they are not (a tampered trace, see property 1)."""
    events = [
        e for e in generated_events if e.rule is not None and e.trigger is not None
    ]
    if any(a.time > b.time for a, b in zip(events, events[1:])):
        events.sort(key=lambda e: e.time)
    return _in_order(
        ((e.trigger.site, e.site, e.trigger.time, e.time, e) for e in events),
        lambda event: event,
    )


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


# -- planted provenance faults (properties 5 and 6) ---------------------------

PROPAGATE = RULES[0]
TWO_STEP = parse_rule(
    "N(phone(n), b) -> [5] WR(addr(n), b), N(flag(n), b)", name="two-step"
)
MIRROR = parse_rule("N(phone(n), b) -> [5] N(flag(n), b)", name="mirror")


def _chains(*rules, rounds=6):
    """A clean run: per round one ``N(phone(p), v)`` at the hub and, per
    rule, its RHS events in step order one second apart at ``replica1``.
    Returns the trace and the rounds as ``(trigger, [generated, ...])``."""
    trace = ExecutionTrace()
    chains = []
    for index in range(rounds):
        start = seconds(10 * index + 1)
        ref = f"p{index % 2}"
        trigger = trace.record(start, "hub", notify_desc(item("phone", ref), index))
        generated = []
        for rule in rules:
            for offset, step in enumerate(rule.steps, start=2):
                make = (
                    write_request_desc
                    if step.template.kind is EventKind.WRITE_REQUEST
                    else notify_desc
                )
                generated.append(
                    trace.record(
                        start + seconds(offset),
                        "replica1",
                        make(item(step.template.item.name, ref), index),
                        rule=rule,
                        trigger=trigger,
                    )
                )
        chains.append((trigger, generated))
    trace.close(seconds(100))
    return trace, chains


def _replayed(trace, edits=None, drop=(), horizon=None, local=False):
    """A copy of ``trace`` with per-``seq`` field overrides applied and the
    ``drop`` seqs left out, re-recorded in (new) time order under the
    original sequence numbers, so provenance keeps resolving.  Triggers stay
    the original trace's events, as a trigger decoded from a wire frame is
    another trace's; ``local`` re-records one the copy already holds as the
    copy's own event instead (an edited trigger stays as given)."""
    edits = edits or {}
    rows = []
    for event in trace.events:
        if event.seq in drop:
            continue
        row = {
            "time": event.time,
            "site": event.site,
            "desc": event.desc,
            "rule": event.rule,
            "trigger": event.trigger,
            "seq": event.seq,
        }
        row.update(edits.get(event.seq, {}))
        rows.append((row, local and "trigger" not in edits.get(event.seq, {})))
    rows.sort(key=lambda pair: pair[0]["time"])
    copy = ExecutionTrace()
    recorded = {}
    for row, resolve in rows:
        trigger = row["trigger"]
        if resolve and trigger is not None:
            row["trigger"] = recorded.get((trigger.site, trigger.seq), trigger)
        event = copy.record(**row)
        recorded[event.site, event.seq] = event
    copy.close(trace.horizon if horizon is None else horizon)
    return copy


def _flagged(violations, number):
    return [
        (v.message, v.event.seq) for v in violations if v.property_number == number
    ]


class TestPlantedProvenance:
    """One mutation per clause of the property-5/6 checks.  ``_both`` holds
    the two validators to the same violation list and returns it."""

    def _both(self, trace, rules):
        fast = validate_trace(trace, rules)
        exact, late = _split(fast)
        naive_exact, naive_late = _split(validate_trace_naive(trace, rules))
        assert exact == naive_exact
        assert set(late) == set(naive_late)
        return fast

    def test_clean_chains_validate(self):
        for rules in ([PROPAGATE], [TWO_STEP], [PROPAGATE, MIRROR]):
            trace, __ = _chains(*rules)
            assert self._both(trace, rules) == []

    def test_trigger_the_lhs_does_not_match(self):
        trace, chains = _chains(PROPAGATE)
        (__, (victim,)), (__, (other,)) = chains[2], chains[1]
        planted = _replayed(trace, {victim.seq: {"trigger": other}})
        found = self._both(planted, [PROPAGATE])
        assert _flagged(found, 5) == [
            ("trigger does not match the rule's LHS", victim.seq)
        ]
        # ... which leaves the real trigger's obligation unmet.
        assert [seq for __, seq in _flagged(found, 6)] == [chains[2][0].seq]

    def test_event_instantiating_no_step(self):
        trace, chains = _chains(PROPAGATE)
        __, (victim,) = chains[3]
        tampered = write_request_desc(item("flag", "p1"), 3)
        planted = _replayed(trace, {victim.seq: {"desc": tampered}})
        found = self._both(planted, [PROPAGATE])
        assert _flagged(found, 5) == [
            ("event is not an instantiation of any RHS template", victim.seq)
        ]
        assert [seq for __, seq in _flagged(found, 6)] == [chains[3][0].seq]

    def test_step_matched_standalone_but_not_under_the_lhs_binding(self):
        # WR(addr(p0), 3) instantiates WR(addr(n), b) on its own; its trigger
        # N(phone(p1), 3) binds n = p1.  Only a match seeded with the LHS
        # interpretation (or the reference's shared-variable check) sees it.
        trace, chains = _chains(PROPAGATE)
        __, (victim,) = chains[3]
        tampered = write_request_desc(item("addr", "p0"), 3)
        planted = _replayed(trace, {victim.seq: {"desc": tampered}})
        found = self._both(planted, [PROPAGATE])
        assert [(v.property_number, v.event.seq) for v in found] == [
            (5, victim.seq)
        ]
        assert "not an instantiation" in found[0].message

    def test_event_after_the_delay_bound(self):
        trace, chains = _chains(PROPAGATE)
        trigger, (victim,) = chains[1]
        late = trigger.time + PROPAGATE.delay + 1
        planted = _replayed(trace, {victim.seq: {"time": late}})
        found = self._both(planted, [PROPAGATE])
        assert _flagged(found, 5) == [
            ("event exceeds its rule's delay bound", victim.seq)
        ]
        assert [seq for __, seq in _flagged(found, 6)] == [trigger.seq]

    def test_event_before_its_trigger(self):
        trace, chains = _chains(PROPAGATE)
        trigger, (victim,) = chains[4]
        planted = _replayed(trace, {victim.seq: {"time": trigger.time - 1}})
        found = self._both(planted, [PROPAGATE])
        assert _flagged(found, 5) == [("event precedes its trigger", victim.seq)]
        assert [seq for __, seq in _flagged(found, 6)] == [trigger.seq]

    def test_generated_event_removed(self):
        trace, chains = _chains(PROPAGATE)
        trigger, (victim,) = chains[2]
        found = self._both(_replayed(trace, drop={victim.seq}), [PROPAGATE])
        assert [(v.property_number, v.event.seq) for v in found] == [
            (6, trigger.seq)
        ]

    def test_obligation_not_yet_due_is_excused(self):
        trace, chains = _chains(PROPAGATE)
        trigger, (victim,) = chains[-1]
        early = trigger.time + PROPAGATE.delay - 1
        planted = _replayed(trace, drop={victim.seq}, horizon=early)
        assert planted.horizon == early
        assert self._both(planted, [PROPAGATE]) == []

    def test_instantiation_outside_previous_step_and_deadline(self):
        # The second step's event moved *before* the first step's: still
        # after the trigger and inside the delay (property 5 is content),
        # but steps are sequential, so step two has no instantiation in
        # [step one, deadline].
        trace, chains = _chains(TWO_STEP)
        trigger, (first, second) = chains[3]
        planted = _replayed(trace, {second.seq: {"time": first.time - 1}})
        found = self._both(planted, [TWO_STEP])
        assert [(v.property_number, v.event.seq) for v in found] == [
            (6, trigger.seq)
        ]
        assert "N(flag(n), b)" in found[0].message

    def test_by_value_trigger_copies_resolve(self):
        # What the wire codec hands back: same (site, seq), another object.
        trace, chains = _chains(TWO_STEP)
        edits = {
            event.seq: {"trigger": dataclasses.replace(trigger)}
            for trigger, generated in chains
            for event in generated
        }
        planted = _replayed(trace, edits)
        assert all(
            e.trigger is not chains[0][0] for e in planted.generated_events
        )
        assert self._both(planted, [TWO_STEP]) == []

    def test_two_rules_fire_on_one_trigger(self):
        trace, chains = _chains(PROPAGATE, MIRROR)
        trigger, (__, mirrored) = chains[2]
        assert mirrored.rule is MIRROR
        found = self._both(
            _replayed(trace, drop={mirrored.seq}), [PROPAGATE, MIRROR]
        )
        assert [(v.property_number, v.event.seq) for v in found] == [
            (6, trigger.seq)
        ]
        assert "'mirror'" in found[0].message

    def test_one_seq_on_two_sites_is_two_triggers(self):
        # Sequence numbers are per process; merged traces can repeat one.
        # The site, compared on the index hit, keeps the triggers apart.
        trace = ExecutionTrace()
        triggers = [
            trace.record(
                seconds(1), site, notify_desc(item("phone", "p0"), 1), seq=500
            )
            for site in ("hub", "annex")
        ]
        trace.record(
            seconds(2),
            "replica1",
            write_request_desc(item("addr", "p0"), 1),
            rule=PROPAGATE,
            trigger=triggers[0],
            seq=501,
        )
        trace.close(seconds(20))
        found = self._both(trace, [PROPAGATE])
        assert [(v.property_number, v.event.site) for v in found] == [(6, "annex")]


class TestSharedMatches:
    """Rules with one LHS template share its matches, and property 6 takes a
    single-step rule's events from property 5 unless it flagged one: each
    case holds both validators to the same violations (``_both``)."""

    _both = TestPlantedProvenance._both

    def test_rules_sharing_an_lhs_keep_their_own_obligations(self):
        rules = [PROPAGATE, MIRROR, TWO_STEP]
        assert len({rule.lhs for rule in rules}) == 1
        trace, chains = _chains(*rules)
        assert self._both(trace, rules) == []
        trigger, (__, mirrored, __, second) = chains[2]
        found = self._both(_replayed(trace, drop={mirrored.seq}), rules)
        assert [(v.property_number, v.event.seq) for v in found] == [
            (6, trigger.seq)
        ]
        assert "'mirror'" in found[0].message
        found = self._both(_replayed(trace, drop={second.seq}), rules)
        assert [(v.property_number, v.event.seq) for v in found] == [
            (6, trigger.seq)
        ]
        assert "'two-step'" in found[0].message

    def test_event_property_5_flags_is_still_found_by_property_6(self):
        # WR(addr(p0), 3) under a trigger binding n = p1: the seeded match
        # fails (property 5), the unseeded one succeeds, so the trigger's
        # obligation is met.  The rule's other events, one of them dropped,
        # go through the matcher too.
        trace, chains = _chains(PROPAGATE, MIRROR)
        __, (victim, __) = chains[3]
        trigger, (dropped, __) = chains[4]
        planted = _replayed(
            trace,
            {victim.seq: {"desc": write_request_desc(item("addr", "p0"), 3)}},
            drop={dropped.seq},
        )
        found = self._both(planted, [PROPAGATE, MIRROR])
        assert [(v.property_number, v.event.seq) for v in found] == [
            (5, victim.seq),
            (6, trigger.seq),
        ]

    def test_multi_step_event_instantiating_another_step(self):
        # The second step's event replaced by another instantiation of the
        # first: property 5 is content (it instantiates *a* step), property
        # 6 finds no N(flag(n), b) — a multi-step rule is always matched.
        trace, chains = _chains(TWO_STEP)
        trigger, (first, second) = chains[1]
        planted = _replayed(trace, {second.seq: {"desc": first.desc}})
        found = self._both(planted, [TWO_STEP])
        assert [(v.property_number, v.event.seq) for v in found] == [
            (6, trigger.seq)
        ]
        assert "N(flag(n), b)" in found[0].message

    def test_equal_lhs_pinned_to_two_sites_keeps_each_sites_events(self):
        # Shared LHS events are collected per rule site: a periodic rule
        # pinned to one site owes nothing for the other site's timer.
        rules = [
            dataclasses.replace(
                parse_rule("P(2) -> [3] RR(phone(n))", name=f"tick-{site}"),
                lhs_site=site,
            )
            for site in ("hub", "replica1")
        ]
        ban = dataclasses.replace(
            parse_rule("P(2) -> [1] FALSE", name="no-ticks"), lhs_site="replica1"
        )
        trace = ExecutionTrace()
        for tick in range(1, 4):
            timers = [
                trace.record(seconds(4 * tick), site, periodic_desc(seconds(2)))
                for site in ("hub", "replica1")
            ]
            for rule, timer in zip(rules, timers):
                if rule.lhs_site == "hub" or tick != 2:
                    trace.record(
                        seconds(4 * tick + 1),
                        rule.lhs_site,
                        read_request_desc(item("phone", "p0")),
                        rule=rule,
                        trigger=timer,
                    )
        trace.close(seconds(20))
        found = self._both(trace, rules + [ban])
        names = [v.message.split("'")[1] for v in found]
        assert names == ["tick-replica1"] + ["no-ticks"] * 3
        assert {(v.property_number, v.event.site) for v in found} == {(6, "replica1")}

    def test_one_triggers_events_interleaved_with_anothers(self):
        # Property 5 keeps one trigger's LHS match at a time; alternating
        # triggers must re-match, never reuse the other's bindings.
        trace = ExecutionTrace()
        triggers = [
            trace.record(seconds(1), "hub", notify_desc(item("phone", ref), value))
            for ref, value in (("p0", 1), ("p1", 2))
        ]
        clock = seconds(2)
        for rule, make, family in (
            (PROPAGATE, write_request_desc, "addr"),
            (MIRROR, notify_desc, "flag"),
        ):
            for trigger in triggers:
                clock += 1
                ref, value = trigger.desc.item.args[0], trigger.desc.values[0]
                trace.record(
                    clock,
                    "replica1",
                    make(item(family, ref), value),
                    rule=rule,
                    trigger=trigger,
                )
        # ... and one claiming the wrong trigger between the right ones.
        stray = trace.record(
            clock + 1,
            "replica1",
            notify_desc(item("flag", "p0"), 1),
            rule=MIRROR,
            trigger=triggers[1],
        )
        trace.record(
            clock + 2,
            "replica1",
            notify_desc(item("flag", "p0"), 1),
            rule=MIRROR,
            trigger=triggers[0],
        )
        trace.close(seconds(20))
        found = self._both(trace, [PROPAGATE, MIRROR])
        assert [(v.property_number, v.event.seq) for v in found] == [
            (5, stray.seq)
        ]


class TestBulkProvenance:
    """Property 5 checks each rule's rows column by column: the planted
    faults below must read the same on both validators, in the same order
    (``_both``)."""

    _both = TestPlantedProvenance._both

    def test_one_fault_among_hundreds_of_clean_rows(self, monkeypatch):
        trace, chains = _chains(PROPAGATE, rounds=220)
        masks = []
        mask = trace_module._mask
        with monkeypatch.context() as patched:
            # Clean, every agreement holds for the whole column at once.
            patched.setattr(
                trace_module, "_mask", lambda *a: masks.append(mask(*a)) or masks[-1]
            )
            assert self._both(trace, [PROPAGATE]) == []
        assert masks and all(found is None for found in masks)
        trigger, (victim,) = chains[150]
        late = trigger.time + PROPAGATE.delay + 1
        planted = _replayed(trace, {victim.seq: {"time": late}}, local=True)
        assert not planted._foreign  # every trigger is the copy's own row
        found = self._both(planted, [PROPAGATE])
        assert _flagged(found, 5) == [
            ("event exceeds its rule's delay bound", victim.seq)
        ]
        assert [seq for __, seq in _flagged(found, 6)] == [trigger.seq]

    def test_two_faults_on_one_row_keep_their_order(self):
        trace, chains = _chains(PROPAGATE, MIRROR, rounds=12)
        trigger, (victim, mirrored) = chains[7]
        __, (early, __) = chains[2]
        planted = _replayed(
            trace,
            {
                victim.seq: {
                    "desc": write_request_desc(item("flag", "p1"), 7),
                    "time": trigger.time + PROPAGATE.delay + 1,
                },
                mirrored.seq: {"time": trigger.time - 1},
                early.seq: {"desc": write_request_desc(item("addr", "p0"), 9)},
            },
            local=True,
        )
        found = self._both(planted, [PROPAGATE, MIRROR])
        assert _flagged(found, 5) == [
            ("event is not an instantiation of any RHS template", early.seq),
            ("event precedes its trigger", mirrored.seq),
            ("event is not an instantiation of any RHS template", victim.seq),
            ("event exceeds its rule's delay bound", victim.seq),
        ]

    def test_triggers_carried_over_the_wire_by_value(self):
        # A trigger decoded from a frame is another trace's event with the
        # same (site, seq).  A faithful copy is the row it names: nothing is
        # kept foreign, and the verdict is the one over the copy's own rows.
        trace, chains = _chains(PROPAGATE, rounds=8)
        trigger, (victim,) = chains[5]
        late = {victim.seq: {"time": trigger.time + PROPAGATE.delay + 1}}

        def wired(event, **changes):
            fields = {"time": event.time, "desc": event.desc, **changes}
            return ExecutionTrace().record(
                site=event.site, seq=event.seq, **fields
            )

        edits = {
            event.seq: {"trigger": wired(source)}
            for source, generated in chains
            for event in generated
        }
        planted = _replayed(trace, edits)
        assert not planted._foreign
        assert self._both(planted, [PROPAGATE]) == []
        edits[victim.seq].update(late[victim.seq])
        planted = _replayed(trace, edits)
        assert not planted._foreign
        found = self._both(planted, [PROPAGATE])
        local = self._both(_replayed(trace, late, local=True), [PROPAGATE])
        assert _split(found) == _split(local)
        assert _flagged(found, 5) == [
            ("event exceeds its rule's delay bound", victim.seq)
        ]
        # A copy that disagrees with its row in time, value, item or kind is
        # not that row: it stays foreign, and the verdict reads the copy.
        ref, value = trigger.desc.item, trigger.desc.values[0]
        delay = "event exceeds its rule's delay bound"
        lhs = "trigger does not match the rule's LHS"
        for changes, fault in (
            ({"time": victim.time - PROPAGATE.delay - 1}, delay),
            (
                {"desc": notify_desc(ref, value + 1)},
                "event is not an instantiation of any RHS template",
            ),
            ({"desc": notify_desc(item("addr", *ref.args), value)}, lhs),
            ({"desc": write_request_desc(ref, value)}, lhs),
        ):
            edits = {victim.seq: {"trigger": wired(trigger, **changes)}}
            planted = _replayed(trace, edits, local=True)
            assert len(planted._foreign) == 1, changes
            found = self._both(planted, [PROPAGATE])
            assert _flagged(found, 5) == [(fault, victim.seq)], changes

    def test_a_copy_under_non_contiguous_numbering_stays_foreign(self):
        # The copy's row is not at ``seq - first seq``: no index is built at
        # record time to find it, so the copy is kept whole, and the verdict
        # reads it as the row it is.
        trace = ExecutionTrace()
        first, trigger = (
            trace.record(seconds(n), "hub", notify_desc(item("phone", ref), n), seq=seq)
            for n, ref, seq in ((1, "p0", 5), (2, "p1", 9))
        )
        copy = ExecutionTrace().record(
            trigger.time, trigger.site, trigger.desc, seq=trigger.seq
        )
        for source in (first, copy):
            ref, value = source.desc.item, source.desc.values[0]
            trace.record(
                source.time + seconds(2),
                "replica1",
                write_request_desc(item("addr", *ref.args), value),
                rule=PROPAGATE,
                trigger=source,
            )
        trace.close(seconds(100))
        assert list(trace._foreign.values()) == [copy]
        assert self._both(trace, [PROPAGATE]) == []

    def test_rows_of_a_multi_step_rule_fitting_its_second_step(self):
        # Every first-step event dropped: the rule's rows all fit its second
        # step, so property 5 is content, and property 6 misses each
        # trigger's first step.
        trace, chains = _chains(TWO_STEP)
        dropped = {first.seq for __, (first, __) in chains}
        found = self._both(_replayed(trace, drop=dropped, local=True), [TWO_STEP])
        assert _flagged(found, 5) == []
        assert [seq for __, seq in _flagged(found, 6)] == [
            trigger.seq for trigger, __ in chains
        ]
        assert all("WR(addr(n), b)" in v.message for v in found)


# Rules the random traces draw provenance from: a repeated variable, a
# constant, a multi-step RHS, a prohibition and a site-pinned periodic rule
# beside the plain copy rules.
POOL = RULES + [
    TWO_STEP,
    MIRROR,
    parse_rule("N(phone(n), n) -> [2] WR(addr(n), n)", name="diagonal"),
    parse_rule("N(phone(n), 1) -> [2] WR(addr(n), 1)", name="ones"),
    dataclasses.replace(
        parse_rule("P(2) -> [3] RR(phone(n))", name="poll"), lhs_site="hub"
    ),
]

_EVENT_SPECS = st.lists(
    st.tuples(
        st.integers(0, 6),  # descriptor shape
        st.integers(0, 2),  # family
        st.integers(0, 1),  # argument
        st.integers(0, 2),  # value
        st.integers(0, 3),  # seconds since the previous event
        st.integers(0, 1),  # site
        st.one_of(  # provenance: (rule, how far back the trigger is)
            st.none(), st.tuples(st.integers(0, len(POOL) - 1), st.integers(1, 6))
        ),
    ),
    max_size=40,
)


@given(
    specs=_EVENT_SPECS,
    picked=st.sets(st.integers(0, len(POOL) - 1)),
    slack=st.integers(0, 8),
)
@settings(max_examples=300, deadline=None)
def test_validators_agree_on_random_rule_sets_and_traces(specs, picked, slack):
    trace = ExecutionTrace()
    clock = 0
    for shape, family, arg, value, gap, site, provenance in specs:
        clock += seconds(gap)
        ref = item(FAMILIES[family], ARGS[arg])
        value = ARGS[arg] if value == 2 else value
        desc = (
            write_desc(ref, value),
            spontaneous_write_desc(ref, 0, value),
            notify_desc(ref, value),
            write_request_desc(ref, value),
            read_request_desc(ref),
            read_response_desc(ref, value),
            periodic_desc(seconds(2)),
        )[shape]
        rule = trigger = None
        if provenance is not None and trace.events:
            rule = POOL[provenance[0]]
            trigger = trace.events[-min(provenance[1], len(trace.events))]
        trace.record(clock, SITES[site], desc, rule=rule, trigger=trigger)
    trace.close(clock + seconds(slack))
    rules = [POOL[index] for index in sorted(picked)]
    exact, late = _split(validate_trace(trace, rules))
    naive_exact, naive_late = _split(validate_trace_naive(trace, rules))
    assert exact == naive_exact
    assert set(late) == set(naive_late)
