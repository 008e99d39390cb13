"""Call budgets for the write path and the verdict: counts, not clocks.

One propagation — ``Ws`` at the hub, notify, rule, network, remote shell,
``WR``, translator write, ``W`` — is the toolkit's unit of work, and what it
costs is mostly a fixed tax of small Python-level calls per hop.  These
guards count ``call`` events under ``sys.setprofile`` (deterministic, the
same on every box), so a ``_require_shell()``-style property, a per-call
registry probe or a Python-level queue comparison creeping back into the
hot path fails here long before a benchmark would show it.

Run these first after touching ``cm/translator.py``, ``sim/scheduler.py``,
``sim/network.py``, ``ExecutionTrace.record``, ``core/events.py`` or
``ris/relational/`` — the per-layer budget names the layer — for the dispatch
budgets, ``cm/shell.py`` or ``cm/dispatch.py``; for the verdict budget,
``core/guarantees/`` or ``validate_trace``.

``TestScalingBudgets`` holds the same kind of count to a *shape*: compiled
rules against the interpreter, observability off against nothing, and
calls per unit of work as items, events or rules double or grow a
hundredfold.
"""

import gc
import os
import random
import sys
from collections import Counter
from functools import partial

import pytest

from repro.analysis import lint_manager
from repro.cm import CMRID, ConstraintManager, Scenario
from repro.cm.verify import verify
from repro.core.dsl import parse_rule
from repro.core.events import EventKind, notify_desc, spontaneous_write_desc
from repro.core.interfaces import InterfaceKind
from repro.core.items import item
from repro.core.rules import RhsStep, Rule
from repro.core.templates import FALSE_TEMPLATE, Template
from repro.core.terms import FAMILY_WILDCARD, ItemPattern, Var
from repro.core.timebase import seconds
from repro.core.trace import ExecutionTrace, validate_trace
from repro.experiments.e4_demarcation import build_inventory_cm
from repro.experiments.e10_scale import build_federation
from repro.protocols.demarcation import SlackPolicy
from repro.ris.relational import RelationalDatabase
from repro.sim.scheduler import Simulator
from repro.workloads.generators import notification_stream
from repro.workloads.inventory import InventoryWorkload


def python_calls(fn) -> int:
    """Python-level function calls made while ``fn()`` runs."""
    return sum(python_calls_by_file(fn).values())


def python_calls_by_file(fn) -> Counter:
    """Python-level function calls made while ``fn()`` runs, per source file
    (``/``-separated; generated dataclass methods count under ``<string>``)."""
    counts: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            counts[frame.f_code.co_filename] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return Counter(
        {name.replace(os.sep, "/"): count for name, count in counts.items()}
    )


@pytest.fixture
def no_collector():
    """Keep the cyclic collector off while counting: finalizers of garbage
    left by earlier tests would otherwise land inside the profiled call."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


#: The write path's layers, by the source files their code lives in.
LAYERS = {
    "ris": ("repro/ris/relational/",),
    "translator": ("repro/cm/translators/", "repro/cm/translator.py"),
    "trace": ("repro/core/trace.py", "repro/core/events.py"),
    "sim": ("repro/sim/",),
    "shell": ("repro/cm/shell.py",),
    "obs": ("repro/obs/",),
}


def layer_of(filename: str) -> str:
    for layer, parts in LAYERS.items():
        if any(part in filename for part in parts):
            return layer
    return "other"


def fanout_federation():
    """The ``fanout_sim`` federation of ``benchmarks/e2e``: a hub and 32
    relational replicas, one propagated copy constraint each, with 50
    updates over 50 keys scheduled.  Returns the manager and the number of
    propagations the run will make."""
    replicas, keys, updates = 32, 50, 50
    cm, __ = build_federation(replicas, seed=11)
    rng = random.Random(5)
    names = [f"p{i}" for i in range(keys)]

    def update():
        cm.spontaneous_write(
            "phone0", (rng.choice(names),), f"555-{rng.randint(1000, 9999)}"
        )

    for tick in sorted(rng.randrange(seconds(10)) for _ in range(updates)):
        cm.scenario.sim.at(tick, update)
    return cm, updates * replicas


def dispatch_shell(batched: bool, notifications: int = 4096):
    """``benchmarks/e2e``'s ``dispatch_batched`` / ``dispatch_per_event``
    shape: 16 cache rules, 16 last-value rules, 32 rule-less families."""
    cm = ConstraintManager(Scenario(seed=11))
    shell = cm.add_site("s")
    rules = [f"N(fam{i}(n), b) & (b > 50) -> [0] W(cache{i}(n), b)" for i in range(16)]
    rules += [f"N(fam{i}(n), b) -> [0] W(last{i}, b)" for i in range(16, 32)]
    for i, text in enumerate(rules):
        shell.install(parse_rule(text, name=f"r{i}"))
    families = [f"fam{i}" for i in range(64)]
    descs = notification_stream(families, 16, notifications, seed=11)
    at, record = cm.scenario.sim.at, cm.scenario.trace.record
    ingest, deliver = shell.ingest_batch, shell.deliver_local_event
    if batched:
        for tick, start in enumerate(range(0, notifications, 256), start=1):
            at(tick, lambda chunk=descs[start : start + 256]: ingest(chunk))
    else:
        for tick, desc in enumerate(descs, start=1):
            at(tick, lambda t=tick, d=desc: deliver(record(t, "s", d)))
    return cm


class TestCallBudget:
    def test_scheduler_run_calls_per_callback(self):
        # The callback itself, nothing else: run() pops and dispatches
        # inline and the queue orders in C.  At 14 when entries compared
        # through a generated ``__lt__``, 3 when the loop made a separate
        # peek and step call per callback.
        sim = Simulator()
        callbacks = 5_000
        ticks = list(range(callbacks))
        random.Random(0).shuffle(ticks)
        for tick in ticks:
            sim.at(tick, lambda: None)
        calls = python_calls(sim.run)
        assert sim.events_processed == callbacks
        assert calls / callbacks <= 2

    def test_fanout_calls_per_propagation(self):
        # 219 before translators bound their shell's state at attach() and
        # resolved interfaces per family, 124 after; 91.6 once bound SQL
        # compiled to closures, descriptors checked shape in one lookup,
        # the trace keyed kinds by value and ``sim.now`` became an
        # attribute; 63.2 once refs hashed and compared in C, descriptors
        # and events were built through their slots, ``record`` ran in one
        # frame and an empty failure plan cost no probe.  The budget sits
        # ~20 % above, so it catches a regression without pinning the
        # exact count.
        cm, propagations = fanout_federation()
        calls = python_calls(lambda: cm.run(until=seconds(40)))
        writes = sum(
            translator.writes_requested
            for shell in cm.shells.values()
            for translator in shell.translators.values()
        )
        assert writes == propagations
        # ``sim.now`` is a plain attribute that only run() assigns: nothing
        # on the write path may have moved the clock past the run's end.
        assert cm.scenario.sim.now == seconds(40)
        assert calls / propagations <= 75

    def test_fanout_calls_per_propagation_by_layer(self):
        # The same count, per layer, so a regression names the layer that
        # regressed.  Calls per propagation before -> after the change
        # that set these budgets (~15 % above the "after" column):
        #   ris          14.31 -> 14.31
        #   translator   14.19 -> 14.19   (plan probes read ``windows``)
        #   trace        14.47 ->  4.16   one-frame record, slot-built
        #                                 descriptors
        #   sim          12.23 ->  6.13   no plan probes, inline gauge
        #   shell         5.09 ->  5.09
        #   obs           5.91 ->  2.91   in-flight gauge not called
        #   other        25.41 -> 16.44   ref hash / == in C, no
        #                                 ``EventDesc.__init__``; left:
        #                                 journal views, ``ResultSet`` /
        #                                 ``Message`` / ``FireMessage``
        #                                 ``__init__``, compiled rules
        budgets = {
            "ris": 17,
            "translator": 17,
            "trace": 4.8,
            "sim": 7,
            "shell": 6,
            "obs": 3.4,
            "other": 19,
        }
        cm, propagations = fanout_federation()
        by_file = python_calls_by_file(lambda: cm.run(until=seconds(40)))
        per_layer: Counter = Counter()
        for filename, count in by_file.items():
            per_layer[layer_of(filename)] += count
        measured = {
            layer: round(per_layer[layer] / propagations, 2) for layer in budgets
        }
        over = {
            layer: (calls, budgets[layer])
            for layer, calls in measured.items()
            if calls > budgets[layer]
        }
        assert not over, f"over budget (calls, budget): {over}; all: {measured}"

    def test_fanout_verdict_calls_per_event(self):
        # The same federation, judged: 128 guarantees and the seven
        # Appendix-A properties over 3 300 events.  96.4 calls per event
        # when every guarantee re-segmented its timelines per pair and the
        # validator interpreted each rule's templates per generated event,
        # 42 with each history read once; halfway, as above.
        cm, __ = fanout_federation()
        cm.run(until=seconds(40))
        events = len(cm.scenario.trace)
        reports = []
        calls = python_calls(lambda: reports.append(verify(cm)))
        (report,) = reports
        assert report.ok, report.render()
        assert len(report.guarantee_reports) == 128
        assert calls / events <= 65

    @pytest.mark.parametrize(
        "batched, budget", [(True, 10.5), (False, 12)], ids=["block", "per_event"]
    )
    def test_dispatch_calls_per_event(self, batched, budget):
        # Per dispatched event (notifications plus chained writes): 18.5
        # through ingest_batch and 21.4 through record + deliver_local_event
        # once both run the one per-event kernel; 14.9 and 16.3 once
        # descriptors checked shape in one lookup, the trace keyed kinds by
        # value and the scheduler loop ran inline; 8.2 and 9.7 once refs
        # hashed in C and ``record`` numbered, built and indexed its event
        # in one frame.  About 15-25 % above each.
        cm = dispatch_shell(batched)
        calls = python_calls(lambda: cm.run(until=seconds(1)))
        dispatched = cm.stats()["total"]["events_processed"]
        assert dispatched == len(cm.scenario.trace) > 4096
        assert calls / dispatched <= budget

    def test_demarcation_calls_per_event(self):
        # ``benchmarks/e2e``'s ``demarcation_sim`` shape over 5 000 virtual
        # seconds: limit handshakes, conditional sends, no rule fires.  Per
        # recorded event 55.4 while every ref hash, descriptor, plan probe
        # and gauge update was a Python frame and each handler re-read its
        # limit per use; 33.9 since.  A handshake that re-reads its state
        # per use, or a probe of an empty plan, fails here.
        cm, installed = build_inventory_cm(11, SlackPolicy.EXACT)
        protocol = installed.native_protocol
        InventoryWorkload(
            cm.scenario.sim, cm.scenario.rngs, protocol, duration=seconds(5000)
        )
        before = len(cm.scenario.trace)
        calls = python_calls(lambda: cm.run(until=seconds(5030)))
        events = len(cm.scenario.trace) - before
        x, y = protocol.x_agent.stats, protocol.y_agent.stats
        assert x.updates_attempted + y.updates_attempted > 3000
        assert x.requests_sent + y.requests_sent > 1000
        assert calls / events <= 42

    @pytest.mark.usefixtures("no_collector")
    def test_flight_recorder_calls_per_event(self):
        # The recorder's pitch is one ring append per digest: with it on,
        # each dispatched event costs exactly one more call than with obs
        # off — ``FlightRecorder.record``; ``sim.now`` is an attribute, not
        # a call.  (21.43 -> 23.43 per event over 5 627 events when first
        # pinned with ``now`` a property; 16.32 -> 17.32 since.)
        off = dispatch_shell(False)
        on = dispatch_shell(False)
        flight = on.scenario.obs.enable_flight()
        calls_off = python_calls(lambda: off.run(until=seconds(1)))
        calls_on = python_calls(lambda: on.run(until=seconds(1)))
        dispatched = on.stats()["total"]["events_processed"]
        assert dispatched == off.stats()["total"]["events_processed"] > 4096
        assert flight.records_taken == dispatched
        assert calls_on - calls_off == dispatched


def dispatch_mix(n_rules: int, compiled: bool = True):
    """One prohibition rule per item family plus one family-wildcard rule
    per 50 (those land in the index's catch-all bucket, so every event
    still consults them), and 200 recorded notifications not yet
    dispatched.  ``FALSE`` right-hand sides keep the count pure dispatch."""
    cm = ConstraintManager(Scenario(seed=0))
    shell = cm.add_site("bench")
    wildcard = Template(
        EventKind.NOTIFY, ItemPattern(FAMILY_WILDCARD, (Var("n"),)), (Var("b"),)
    )
    for i in range(n_rules):
        if i % 50 == 49:
            rule = Rule(f"r{i}", wildcard, 0, (RhsStep(FALSE_TEMPLATE),))
        else:
            rule = parse_rule(f"N(fam{i}(n), b) -> [1] FALSE", name=f"r{i}")
        shell.install(rule, compiled=compiled)
    descs = [notify_desc(item(f"fam{i % n_rules}", "e"), float(i)) for i in range(200)]
    record = cm.scenario.trace.record
    events = [record(seconds(i + 1), "bench", d) for i, d in enumerate(descs)]
    return shell, events


def deliver_all(shell, events) -> None:
    for event in events:
        shell.deliver_local_event(event)


ANNOUNCE = parse_rule("Ws(F(n), a, b) -> [1] N(F(n), b)", name="announce")


def fill_trace(trace: ExecutionTrace, refs, n_events: int) -> None:
    """``n_events`` events over ``refs``: spontaneous writes, each followed
    by its generated ``ANNOUNCE`` notification, all in one site-pair group
    (so validation runs Appendix-A properties 5-7 on half the trace)."""
    clock = 0
    for index in range(n_events // 2):
        ref = refs[index % len(refs)]
        clock += seconds(0.5)
        value = index % 7
        write = trace.record(
            clock, "s", spontaneous_write_desc(ref, trace.current_value(ref), value)
        )
        trace.record(
            clock + seconds(0.25),
            "s",
            notify_desc(ref, value),
            rule=ANNOUNCE,
            trigger=write,
        )
    trace.close(clock + seconds(10))


def query_bundle(trace: ExecutionTrace, refs) -> tuple:
    """Every indexed query once, then validation."""
    writes = 0
    for ref in refs:
        writes += sum(1 for _ in trace.writes_to(ref))
        trace.timeline(ref)
    spontaneous = sum(1 for _ in trace.events_of_kind(EventKind.SPONTANEOUS_WRITE))
    return (
        writes,
        spontaneous,
        len(trace.refs_of_family("F")),
        validate_trace(trace, [ANNOUNCE]),
    )


def lint_chain(n_rules: int) -> ConstraintManager:
    """Two sites, the salary source, and ``n_rules`` chained private-write
    rules on one shell: a periodic head, then each link triggered by the
    previous link's write.  Lint-clean by construction."""
    cm = ConstraintManager(Scenario(seed=0))
    cm.add_site("sf")
    cm.add_site("ny")
    branch = RelationalDatabase("branch")
    branch.execute("CREATE TABLE employees (empid TEXT PRIMARY KEY, salary REAL)")
    rid = CMRID("relational", "branch").bind(
        "salary1",
        params=("n",),
        table="employees",
        key_column="empid",
        value_column="salary",
    )
    rid.offer("salary1", InterfaceKind.NOTIFY, bound_seconds=2.0)
    rid.offer("salary1", InterfaceKind.READ, bound_seconds=1.0)
    cm.add_source("sf", branch, rid)
    shell = cm.shell("sf")
    cm.locations.register("Stage0", "sf")
    shell.install(parse_rule("P(3600) -> [1] W(Stage0, 0)", name="head"))
    for i in range(1, n_rules):
        cm.locations.register(f"Stage{i}", "sf")
        shell.install(
            parse_rule(f"W(Stage{i - 1}, b) -> [1] W(Stage{i}, b)", name=f"link{i}")
        )
    return cm


@pytest.mark.usefixtures("no_collector")
class TestScalingBudgets:
    # Measured when these replaced the wall-clock micro-benchmarks; each
    # bound sits about 15 % beyond its measurement.

    def test_compiled_dispatch_calls_per_event(self):
        # 1 000 rules: 88.9 calls per dispatched event compiled, 277.7
        # interpreted (3.12x).
        per_event = {}
        for compiled in (True, False):
            shell, events = dispatch_mix(1000, compiled)
            calls = python_calls(partial(deliver_all, shell, events))
            per_event[compiled] = calls / shell.stats()["events_processed"]
        assert per_event[True] <= 105, per_event
        assert per_event[False] / per_event[True] >= 2.7, per_event

    def test_observability_off_costs_no_calls(self):
        # With tracing and the flight recorder off, the shell's counters
        # are attribute increments: not one call lands in ``repro/obs/``,
        # on either dispatch arm.
        for compiled in (True, False):
            shell, events = dispatch_mix(1000, compiled)
            assert not shell.obs.enabled
            by_file = python_calls_by_file(partial(deliver_all, shell, events))
            assert shell.stats()["events_processed"] == len(events)
            obs = {name: n for name, n in by_file.items() if layer_of(name) == "obs"}
            assert obs == {}, obs

    def test_record_calls_flat_in_items(self):
        # Per recorded event over 4 000 events: 15.03 at 64 items, 15.06 at
        # 128; 6.50 at both since ``record`` runs in one frame and refs hash
        # in C.  Snapshotting whole interpretations per event once made
        # this grow linearly with the item count.
        per_event = {}
        for n_items in (64, 128):
            refs = [item("F", f"i{k}") for k in range(n_items)]
            calls = python_calls(partial(fill_trace, ExecutionTrace(), refs, 4000))
            per_event[n_items] = calls / 4000
        assert per_event[128] / per_event[64] <= 1.05, per_event

    def test_trace_queries_calls_linear_in_events(self):
        # The query bundle per event: 13.73 at 2 000 events, 13.61 at
        # 4 000 (32 items); 13.15 and 13.07 with refs hashed in C.  A
        # pairwise property-7 loop, or a query that rescans the journal per
        # item, breaks the ratio.
        per_event = {}
        for n_events in (2000, 4000):
            trace = ExecutionTrace()
            refs = [item("F", f"i{k}") for k in range(32)]
            fill_trace(trace, refs, n_events)
            results = []
            calls = python_calls(
                lambda t=trace, r=refs: results.append(query_bundle(t, r))
            )
            per_event[n_events] = calls / n_events
            half = n_events // 2
            assert results == [(half, half, 32, [])]
            assert len(trace.generated_events) == half
            # Exact work: every write journaled once and folded into its
            # item's timeline once; no query materialized an interpretation.
            stats = trace.stats()
            assert stats["events_recorded"] == n_events
            assert stats["state_versions"] == half
            assert stats["timeline_extend_steps"] == half
            assert stats["interpretation_materializations"] == 0
        assert per_event[4000] / per_event[2000] <= 1.1, per_event

    def test_lint_calls_linear_in_rules(self):
        # Calls per rule for a warm lint pass: 59.9 at 10 chained rules,
        # 54.1 at 1 000 (85.5 and 77.1 before the codes that repeat the
        # install-time survey, the compile fallback count and the dead-rule
        # walk were deleted).  The first pass pays one-time setup, so it is
        # the lint-clean check, not the count.
        per_rule = {}
        for n_rules in (10, 1000):
            cm = lint_chain(n_rules)
            assert lint_manager(cm).diagnostics == []
            per_rule[n_rules] = python_calls(partial(lint_manager, cm)) / n_rules
        assert per_rule[1000] <= 1.1 * per_rule[10], per_rule
        assert per_rule[1000] <= 60, per_rule
