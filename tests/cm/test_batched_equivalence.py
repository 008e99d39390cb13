"""Block delivery vs. per-event delivery.

- **trace identity** — ``deliver_local_events`` over pre-recorded events
  produces the byte-identical trace per-event delivery produces;
- **multiset equivalence** — ``ingest_batch`` records its whole block
  before the first rule fires, so chained writes land after the block;
  the event multiset still equals the sequential run's and the Appendix-A
  validator accepts the trace.

``record_batch`` itself is held to ``record``: same events, same
interpretation chaining, same sequence numbers, all in the trace the
moment the call returns.
"""

from __future__ import annotations

import pytest

from repro.cm import ConstraintManager, Scenario
from repro.core import validate_trace
from repro.core.dsl import parse_rule
from repro.core.errors import TraceError
from repro.core.events import (
    EventKind,
    notify_desc,
    reset_event_sequence,
    spontaneous_write_desc,
    write_desc,
)
from repro.core.items import item
from repro.core.rules import RhsStep, Rule
from repro.core.templates import FALSE_TEMPLATE, Template
from repro.core.terms import FAMILY_WILDCARD, ItemPattern, Var
from repro.core.timebase import seconds
from repro.core.trace import ExecutionTrace

N_EVENTS = 200
FAMILIES = 8


# -- dispatch-level trace identity --------------------------------------------


def _build_shell(catch_all: bool = True):
    """One shell with a chained-write rule per family (immediate RHS, so
    firing writes land mid-batch) plus an optional family-wildcard audit
    rule (a catch-all candidate for every NOTIFY)."""
    reset_event_sequence()
    cm = ConstraintManager(Scenario(seed=0))
    shell = cm.add_site("s")
    for i in range(FAMILIES):
        cm.locations.register(f"Out{i}", "s")
        shell.install(
            parse_rule(f"N(fam{i}(n), b) -> [0] W(Out{i}, b)", name=f"copy{i}")
        )
    if catch_all:
        wildcard = ItemPattern(FAMILY_WILDCARD, (Var("n"),))
        lhs = Template(EventKind.NOTIFY, wildcard, (Var("b"),))
        shell.install(Rule("audit", lhs, 0, (RhsStep(FALSE_TEMPLATE),)))
    return cm, shell


def _descs():
    return [
        notify_desc(item(f"fam{i % FAMILIES}", f"k{i % 5}"), float(i))
        for i in range(N_EVENTS)
    ]


def _signature(trace):
    base = trace.events[0].seq
    return [
        (
            event.time,
            event.site,
            str(event.desc),
            event.rule.name if event.rule is not None else None,
            event.trigger.seq - base if event.trigger is not None else None,
            event.seq - base,
        )
        for event in trace.events
    ]


def _sequential_signature(**build_kwargs):
    cm, shell = _build_shell(**build_kwargs)
    trace = cm.scenario.trace
    # Pre-record the whole block, then deliver one-by-one: the per-event
    # specification path on exactly the inputs the batched paths get.
    events = [trace.record(0, "s", desc) for desc in _descs()]
    for event in events:
        shell.deliver_local_event(event)
    return _signature(trace), cm.stats()["total"]


def _assert_ran_batched(stats, expected_stats):
    """Every dispatch counter equals the per-event run's, and the run
    delivered real blocks — so the suite cannot go vacuous."""
    assert stats.pop("batch_events") > stats.pop("batches_processed") > 0
    assert stats == {key: expected_stats[key] for key in stats}


def _per_event(cm, shell, descs):
    for desc in descs:
        shell.deliver_local_event(cm.scenario.trace.record(0, "s", desc))


def _ingest(cm, shell, descs):
    shell.ingest_batch(descs)


def test_deliver_local_events_trace_identical():
    expected, expected_stats = _sequential_signature()
    cm, shell = _build_shell()
    trace = cm.scenario.trace
    events = [trace.record(0, "s", desc) for desc in _descs()]
    shell.deliver_local_events(events)
    assert _signature(trace) == expected
    _assert_ran_batched(cm.stats()["total"], expected_stats)


def test_ingest_batch_equivalent_and_valid():
    """``ingest_batch`` defers chained writes to after the block (they
    stay same-tick, so verdicts and the validator are unaffected); the
    event *multiset* matches the sequential run's exactly."""
    expected, expected_stats = _sequential_signature(catch_all=False)
    cm, shell = _build_shell(catch_all=False)
    for start in range(0, N_EVENTS, 64):
        assert shell.ingest_batch(_descs()[start : start + 64]) == min(
            64, N_EVENTS - start
        )
    got = _signature(cm.scenario.trace)
    assert sorted(got) != [] and sorted(e[:4] for e in got) == sorted(
        e[:4] for e in expected
    )
    assert validate_trace(cm.scenario.trace, shell._index.rules) == []
    _assert_ran_batched(cm.stats()["total"], expected_stats)


def test_ingest_batch_records_at_the_current_tick():
    """A block is ingested at ``sim.now``, the tick its RHS writes are
    recorded at; there is no ``time=`` to stamp it ahead of the clock
    (which made the first chained write a time regression)."""
    reset_event_sequence()
    cm = ConstraintManager(Scenario(seed=0))
    shell = cm.add_site("s")
    shell.install(parse_rule("N(fam(n), b) -> [0] W(cache(n), b)", name="copy"))
    descs = [notify_desc(item("fam", f"k{i}"), float(i)) for i in range(4)]
    with pytest.raises(TypeError):
        shell.ingest_batch(descs, time=5)
    cm.scenario.sim.at(5, lambda: shell.ingest_batch(descs))
    cm.run(until=10)
    trace = cm.scenario.trace
    assert [event.time for event in trace.events] == [5] * 8
    assert shell.stats()["events_processed"] == 8  # 4 ingested + 4 chained
    assert shell.stats()["rules_fired"] == 4
    assert validate_trace(trace, shell.rules) == []


def test_batch_counts_only_the_events_it_dispatched():
    """An exception escaping a rule's RHS mid-block leaves
    ``events_processed`` at the number of events the loop reached, exactly
    as per-event delivery of the same block does."""

    def run(deliver):
        reset_event_sequence()
        cm = ConstraintManager(Scenario(seed=0))
        shell = cm.add_site("s")
        shell.install(parse_rule("N(fam(n), b) -> [0] W(cache(n), b)", name="copy"))
        boom = RuntimeError("RHS failed")
        write = shell.store.write

        def failing_write(ref, value, *args, **kwargs):
            if value == 2.0:
                raise boom
            return write(ref, value, *args, **kwargs)

        shell.store.write = failing_write
        descs = [notify_desc(item("fam", f"k{i}"), float(i)) for i in range(6)]
        with pytest.raises(RuntimeError):
            deliver(cm, shell, descs)
        return shell.stats()["events_processed"]

    # Events 0 and 1 dispatch and chain one write each, event 2 is reached
    # and raises: 3 dispatched + 2 chained.
    assert run(_per_event) == run(_ingest) == 5


def test_ingest_batch_leaves_one_flight_digest_per_event():
    """An incident dump after an ingested block names each event, exactly
    as after per-event delivery (not one ``"batch"`` digest per block)."""

    def ring(deliver):
        cm, shell = _build_shell(catch_all=False)
        flight = cm.scenario.obs.enable_flight()
        deliver(cm, shell, _descs()[:16])
        return flight.digest("s")

    expected = ring(_per_event)
    assert len(expected) == 32  # 16 notifications + 16 chained writes
    assert {row["kind"] for row in expected} == {"event"}
    assert ring(_ingest) == expected


# -- record_batch is record, once per descriptor ------------------------------


def _mixed_descs():
    """A block mixing non-writes with both write kinds."""
    x, y = item("X"), item("Y", "k")
    return [
        notify_desc(item("fam0", "k0"), 1.0),
        write_desc(x, 1.0),
        notify_desc(item("fam1", "k1"), 2.0),
        spontaneous_write_desc(y, 0.0, 5.0),
        spontaneous_write_desc(x, 1.0, 2.0),
        notify_desc(item("fam0", "k0"), 3.0),
        write_desc(y, 6.0),
    ]


def _event_signature(trace):
    base = trace.events[0].seq
    return [
        (
            event.time,
            event.site,
            event.desc,
            dict(event.old),
            dict(event.new),
            event.seq - base,
        )
        for event in trace.events
    ]


def test_record_batch_is_eager_and_equals_record():
    descs = _mixed_descs()
    reset_event_sequence()
    reference = ExecutionTrace()
    reference.record(0, "s", descs[0])
    for desc in descs:
        reference.record(seconds(1), "s", desc)

    reset_event_sequence()
    trace = ExecutionTrace()
    first = trace.record(0, "s", descs[0])
    block = trace.record_batch(seconds(1), "s", descs)
    # Everything is in the trace, and indexed, the moment the call returns.
    events = trace.events
    assert len(trace) == len(events) == len(descs) + 1
    assert len(block) == len(descs)
    # The trace keeps rows, not the returned events: its views equal them.
    assert list(block) == list(events[-len(descs) :])
    assert list(trace.writes_to(item("X"))) == [block[1], block[4]]
    assert trace.horizon == seconds(1)
    assert trace.current_value(item("Y", "k")) == 6.0
    # Same events, interpretations and numbering as record() per descriptor.
    assert _event_signature(trace) == _event_signature(reference)
    assert [e.seq for e in events] == list(range(first.seq, first.seq + len(events)))
    # Interpretation views chain by identity, into and across the block.
    for previous, event in zip(events, events[1:]):
        assert event.old is previous.new
    for event in block:
        assert (event.new is event.old) is (not event.desc.kind.is_write)
        assert event.rule is None and event.trigger is None
    # Per-event recording continues the numbering and the chain.
    later = trace.record(seconds(2), "s", descs[0])
    assert later.seq == events[-1].seq + 1
    assert later.old is events[-1].new
    assert validate_trace(trace, []) == []
    # An empty block records nothing and reserves nothing.
    assert trace.record_batch(seconds(2), "s", []) == []
    assert trace.record(seconds(2), "s", descs[0]).seq == later.seq + 1


def test_record_batch_rejects_time_regression():
    trace = ExecutionTrace()
    trace.record_batch(seconds(2), "s", _descs()[:3])
    with pytest.raises(TraceError):
        trace.record_batch(seconds(1), "s", _descs()[:3])
    trace.record(seconds(3), "s", _descs()[0])
    with pytest.raises(TraceError):
        trace.record_batch(seconds(2), "s", _descs()[:3])
    assert len(trace) == 4  # a rejected block records nothing


# -- ShellStore.items caching (the per-access dict rebuild regression) --------


def test_store_items_view_is_cached_and_read_only():
    cm, shell = _build_shell(catch_all=False)
    store = shell.store
    ref = item("Out0")
    store.write(ref, 1.0, 0)
    view = store.items()
    assert store.items() is view  # no rebuild per access
    assert view[ref] == 1.0
    with pytest.raises(TypeError):
        view[ref] = 2.0  # read-only
    store.write(ref, 3.0, 0)
    assert store.items()[ref] == 3.0  # writes stay visible
