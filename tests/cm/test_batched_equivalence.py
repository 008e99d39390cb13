"""Batched dispatch vs. the sequential kernel.

Batching (``ingest_batch``, ``deliver_local_events``, ``enable_batching``)
is a pure performance transformation.  These tests hold it to that claim
at three strengths:

- **trace identity** — dispatching pre-recorded events through the batch
  loop must produce the byte-identical trace the per-event specification
  path produces (same events, same firing order, same provenance);
- **verdict identity** — full salary-scenario runs with same-tick
  buffering enabled must reach exactly the sequential kernel's guarantee
  verdicts under every strategy and several seeds, with the Appendix-A
  validator passing on both traces;
- **laziness is invisible** — the deferred Event materialization behind
  ``record_batch`` must never be observable: flushed events are the very
  objects dispatch fired on, sequence numbers stay contiguous, and the
  validator accepts mixed batch/per-event recording.
"""

from __future__ import annotations

import pytest

from repro.cm import ConstraintManager, Scenario
from repro.cm.shell import CMShell
from repro.core import validate_trace
from repro.core.dsl import parse_rule
from repro.core.events import EventKind, notify_desc, reset_event_sequence
from repro.core.items import item
from repro.core.rules import RhsStep, Rule
from repro.core.templates import FALSE_TEMPLATE, Template
from repro.core.terms import FAMILY_WILDCARD, ItemPattern, Var
from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario
from repro.workloads import PersonnelWorkload

STRATEGY_KINDS = ["propagation", "cached-propagation", "polling"]
SEEDS = [0, 1, 2]

N_EVENTS = 200
FAMILIES = 8


# -- dispatch-level trace identity --------------------------------------------


def _build_shell(catch_all: bool = True):
    """One shell with a chained-write rule per family (immediate RHS, so
    firing writes land mid-batch) plus an optional family-wildcard audit
    rule (a catch-all candidate for every NOTIFY)."""
    reset_event_sequence()
    cm = ConstraintManager(Scenario(seed=0))
    cm.add_site("s")
    shell = cm.shell("s")
    for i in range(FAMILIES):
        cm.locations.register(f"Out{i}", "s")
        shell.install(
            parse_rule(f"N(fam{i}(n), b) -> [0] W(Out{i}, b)", name=f"copy{i}")
        )
    if catch_all:
        lhs = Template(
            EventKind.NOTIFY,
            ItemPattern(FAMILY_WILDCARD, (Var("n"),)),
            (Var("b"),),
        )
        shell.install(
            Rule(name="audit", lhs=lhs, delay=0, steps=(RhsStep(FALSE_TEMPLATE),))
        )
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


def test_deliver_local_events_trace_identical():
    expected, expected_stats = _sequential_signature()
    cm, shell = _build_shell()
    trace = cm.scenario.trace
    events = [trace.record(0, "s", desc) for desc in _descs()]
    shell.deliver_local_events(events)
    assert _signature(trace) == expected
    stats = cm.stats()["total"]
    assert stats["rules_fired"] == expected_stats["rules_fired"]
    assert (
        stats["candidates_considered"]
        == expected_stats["candidates_considered"]
    )


def test_ingest_batch_equivalent_and_valid():
    """``ingest_batch`` defers chained writes to after the block (they
    stay same-tick, so verdicts and the validator are unaffected); the
    event *multiset* matches the sequential run's exactly."""
    expected, __ = _sequential_signature(catch_all=False)
    cm, shell = _build_shell(catch_all=False)
    for start in range(0, N_EVENTS, 64):
        shell.ingest_batch(_descs()[start : start + 64], time=0)
    got = _signature(cm.scenario.trace)
    assert sorted(got) != [] and sorted(e[:4] for e in got) == sorted(
        e[:4] for e in expected
    )
    assert validate_trace(cm.scenario.trace, shell._index.rules) == []


# -- scenario-level verdict identity ------------------------------------------


def _salary_run(strategy_kind: str, seed: int, **scenario_kwargs):
    salary = build_salary_scenario(
        strategy_kind=strategy_kind,
        seed=seed,
        polling_period=10.0,
        **scenario_kwargs,
    )
    PersonnelWorkload(
        salary.cm, employee_count=6, rate=0.5, duration=seconds(120)
    )
    salary.cm.run(until=seconds(200))
    verdicts = {
        name: report.valid
        for name, report in salary.cm.check_guarantees().items()
    }
    violations = validate_trace(
        salary.scenario.trace, list(salary.installed.strategy.rules)
    )
    return salary, verdicts, violations


@pytest.mark.parametrize(
    "seed,strategy_kind,compiled",
    [
        pytest.param(
            seed,
            kind,
            compiled,
            id=f"{seed}-{kind}" + ("" if compiled else "-interpreted"),
        )
        for compiled in (True, False)
        for seed in SEEDS
        for kind in STRATEGY_KINDS
    ],
)
def test_batched_salary_verdicts_identical(
    seed, strategy_kind, compiled, monkeypatch
):
    __, base_verdicts, base_violations = _salary_run(strategy_kind, seed)
    # compiled=False runs the interpreted arm through the batch loop.
    monkeypatch.setattr(CMShell, "compile_rules", compiled)
    batched, verdicts, violations = _salary_run(
        strategy_kind, seed, batch_max=32
    )
    assert base_violations == []
    assert violations == []
    assert verdicts == base_verdicts
    processed = batched.cm.stats()["total"]
    assert processed["events_processed"] > 0
    assert bool(processed["rules_compiled"]) is compiled


# -- the lazy trace is invisible ----------------------------------------------


def test_record_batch_flush_preserves_identity_and_order():
    from repro.core.trace import ExecutionTrace

    reset_event_sequence()
    trace = ExecutionTrace()
    descs = _descs()[:10]
    batch = trace.record_batch(0, "s", descs)
    # Lazily counted, not yet materialized.
    assert len(trace) == 10
    early = batch.event_at(7)  # out-of-order trigger materialization
    events = trace.events  # flush-on-read
    assert len(events) == 10
    assert events[7] is early
    assert [e.seq for e in events] == list(range(events[0].seq, events[0].seq + 10))
    assert [e.desc for e in events] == descs
    # Per-event recording continues seamlessly after a flushed block.
    later = trace.record(seconds(1), "s", descs[0])
    assert later.seq == events[-1].seq + 1


def test_record_batch_rejects_time_regression():
    from repro.core.trace import ExecutionTrace, TraceError

    trace = ExecutionTrace()
    trace.record_batch(seconds(2), "s", _descs()[:3])
    with pytest.raises(TraceError):
        trace.record_batch(seconds(1), "s", _descs()[:3])


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
