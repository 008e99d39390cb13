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

``TestScalingBudgets`` holds the same kind of count to a *shape*: dispatch
over 1 000 compiled rules, observability off against nothing, and calls
per unit of work as items, events or rules double or grow a hundredfold.

``TestRetentionBudget`` counts what the trace keeps: GC-tracked objects
left per recorded event, after ``gc.collect()``.
"""

import gc
import json
import os
import random
import sys
from collections import Counter
from functools import partial

import pytest

from repro.analysis import lint_manager
from repro.cm import CMRID, ConstraintManager, Scenario
from repro.cm.shell import FireMessage
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
from repro.runtime.channels import decode_payload, encode_payload
from repro.runtime.codec import decode_event, encode_event
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


#: The template module, as a profiled frame's file name ends.
TEMPLATES = os.path.join("repro", "core", "templates.py")


def layer_of(filename: str) -> str:
    for layer, parts in LAYERS.items():
        if any(part in filename for part in parts):
            return layer
    return "other"


def fanout_federation(replicas: int = 32):
    """The ``fanout_sim`` federation of ``benchmarks/e2e``: a hub and 32 (or
    ``replicas``) relational replicas, one propagated copy constraint each,
    with 50 updates over 50 keys scheduled.  Returns the manager and the
    number of propagations the run will make."""
    keys, updates = 50, 50
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
        # frame and an empty failure plan cost no probe; 59.1 since the
        # trace keeps rows and the journal no views; 56.6 since the
        # relational RIS finds a row by its primary key inline (the budget
        # fell by the 2.5 calls that earned).  The budget sits ~20 % above,
        # so it catches a regression without pinning the exact count.
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
        assert calls / propagations <= 68.5

    def test_fanout_calls_per_propagation_by_layer(self):
        # The same count, per layer, so a regression names the layer that
        # regressed.  Calls per propagation before -> after the change
        # that set these budgets (~15 % above the "after" column):
        #   ris          14.31 -> 14.31
        #   ris          14.31 -> 11.80   primary-key probe inline, no
        #                                 secondary-index upkeep
        #   translator   14.19 -> 14.19   (plan probes read ``windows``)
        #   trace        14.47 ->  4.16   one-frame record, slot-built
        #                                 descriptors
        #   sim          12.23 ->  6.13   no plan probes, inline gauge
        #   shell         5.09 ->  5.09
        #   obs           5.91 ->  2.91   in-flight gauge not called
        #   other        25.41 -> 16.44   ref hash / == in C, no
        #                                 ``EventDesc.__init__``
        #   other        16.44 -> 12.31   no journal view per event (one
        #                                 ``write`` per write is left);
        #                                 left: ``ResultSet`` /
        #                                 ``Message`` / ``FireMessage``
        #                                 ``__init__``, compiled rules
        budgets = {
            "ris": 14.5,
            "translator": 17,
            "trace": 4.8,
            "sim": 7,
            "shell": 6,
            "obs": 3.4,
            "other": 15,
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

    def test_fanout_codec_calls_per_firing(self):
        # Each cross-site firing of a 4-replica fan-out, encoded in send
        # order as the wire's sender does and decoded from its JSON as the
        # receiver does.  31.0 + 49.0 calls per firing while every value
        # took a codec frame, events and descriptors ran their generated
        # ``__init__`` and kinds an ``Enum`` lookup; 5.5 + 15.0 once plain
        # scalars were copied in C, events decoded through their slots and
        # a fan-out encoded its shared trigger chain once.  About 15 % above.
        cm, propagations = fanout_federation(replicas=4)
        network, sent = cm.scenario.network, []
        send = network.send

        def capture(src, dst, payload):
            sent.append(payload)
            return send(src, dst, payload)

        network.send = capture
        cm.run(until=seconds(40))
        firings = [payload for payload in sent if type(payload) is FireMessage]
        assert len(firings) == propagations
        encoded: list = []
        encode_calls = python_calls(
            lambda: encoded.extend(map(encode_payload, firings))
        )
        frames = [json.loads(json.dumps(data)) for data in encoded]
        decode_calls = python_calls(lambda: list(map(decode_payload, frames)))
        assert encode_calls / len(firings) <= 6.4
        assert decode_calls / len(firings) <= 17.3

    def test_fanout_verdict_calls_per_event(self):
        # The same federation, judged: 128 guarantees and the seven
        # Appendix-A properties over 3 300 events.  96.4 calls per event
        # when every guarantee re-segmented its timelines per pair and the
        # validator interpreted each rule's templates per generated event,
        # 42.3 with each history read once, 34.1 once the lint kept only
        # what nothing else catches, 26.6 with each match derived once
        # (rules sharing an LHS share its matches, property 6 reuses
        # property 5, strictly-follows scans linearly), 24.6 with the
        # validator reading rows (25.6 when next measured), 16.1 with
        # property 5 checked by positional agreements and each copy-family
        # pairing in one walk per instance, 6.07 with segments built in C,
        # a pairing's timelines fetched in one loop, property 5 checked a
        # rule and a column at a time and one-witness follows judged
        # inline.  About 20 % above.
        cm, __ = fanout_federation()
        cm.run(until=seconds(40))
        events = len(cm.scenario.trace)
        reports = []
        calls = python_calls(lambda: reports.append(verify(cm)))
        (report,) = reports
        assert report.ok, report.render()
        assert len(report.guarantee_reports) == 128
        assert calls / events <= 7.3

    def test_property_5_makes_no_template_call(self):
        # Property 5 checks a rule's generated rows by positional agreements
        # on columns, not a matcher: no call into core/templates.py comes
        # from it, and all of validate_trace makes at most one per LHS
        # candidate row property 6 reads.  A presence check, like CI's
        # tokenize_sql one.
        cm, __ = fanout_federation()
        cm.run(until=seconds(40))
        trace = cm.scenario.trace
        rules = [rule for shell in cm.shells.values() for rule in shell.rules]
        callers: Counter = Counter()

        def profiler(frame, event, arg):
            if (
                event == "call"
                and frame.f_code.co_filename.endswith(TEMPLATES)
                and not frame.f_back.f_code.co_filename.endswith(TEMPLATES)
            ):
                callers[frame.f_back.f_code.co_name] += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            violations = validate_trace(trace, rules)
        finally:
            sys.setprofile(previous)
        assert violations == []
        candidates = sum(len(trace._candidates(rule.lhs)) for rule in rules)
        assert len(trace.generated_events) > candidates / 2  # a real load
        assert callers["_provenance"] == callers["_mask"] == 0, callers
        assert sum(callers.values()) <= candidates, callers

    @pytest.mark.parametrize(
        "batched, budget", [(True, 9), (False, 10.5)], ids=["block", "per_event"]
    )
    def test_dispatch_calls_per_event(self, batched, budget):
        # Per dispatched event (notifications plus chained writes): 18.5
        # through ingest_batch and 21.4 through record + deliver_local_event
        # once both run the one per-event kernel; 14.9 and 16.3 once
        # descriptors checked shape in one lookup, the trace keyed kinds by
        # value and the scheduler loop ran inline; 8.2 and 9.7 once refs
        # hashed in C and ``record`` numbered, built and indexed its event
        # in one frame; 6.7 and 8.1 once ``record`` made no journal view.
        # About 15-30 % above each.
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
        # limit per use; 33.9 since, 30.9 once ``record`` made no journal
        # view.  A handshake that re-reads its state per use, or a probe of
        # an empty plan, fails here.
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
        assert calls / events <= 39

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


def dispatch_mix(n_rules: int):
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
        shell.install(rule)
    descs = [notify_desc(item(f"fam{i % n_rules}", "e"), float(i)) for i in range(200)]
    record = cm.scenario.trace.record
    events = [record(seconds(i + 1), "bench", d) for i, d in enumerate(descs)]
    return shell, events


def deliver_all(shell, events) -> None:
    for event in events:
        shell.deliver_local_event(event)


ANNOUNCE = parse_rule("Ws(F(n), a, b) -> [1] N(F(n), b)", name="announce")


def fill_trace(
    trace: ExecutionTrace, refs, n_events: int, wire: bool = False
) -> None:
    """``n_events`` events over ``refs``: spontaneous writes, each followed
    by its generated ``ANNOUNCE`` notification, all in one site-pair group
    (so validation runs Appendix-A properties 5-7 on half the trace).  With
    ``wire``, each notification's trigger is its write's codec round trip,
    as a firing that crossed a channel carries it."""
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
            trigger=decode_event(encode_event(write)) if wire else write,
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
        # 1 000 rules: 88.9 calls per dispatched event.
        shell, events = dispatch_mix(1000)
        calls = python_calls(partial(deliver_all, shell, events))
        per_event = calls / shell.stats()["events_processed"]
        assert per_event <= 105, per_event

    def test_observability_off_costs_no_calls(self):
        # With the flight recorder off, the shell's counters are attribute
        # increments: not one call lands in ``repro/obs/``.
        shell, events = dispatch_mix(1000)
        assert shell.obs.flight is None
        by_file = python_calls_by_file(partial(deliver_all, shell, events))
        assert shell.stats()["events_processed"] == len(events)
        obs = {name: n for name, n in by_file.items() if layer_of(name) == "obs"}
        assert obs == {}, obs

    def test_record_calls_flat_in_items(self):
        # Per recorded event over 4 000 events: 15.03 at 64 items, 15.06 at
        # 128; 6.50 at both since ``record`` runs in one frame and refs hash
        # in C, 4.50 since it makes no journal view.  Snapshotting whole
        # interpretations per event once made this grow linearly with the
        # item count.
        per_event = {}
        for n_items in (64, 128):
            refs = [item("F", f"i{k}") for k in range(n_items)]
            calls = python_calls(partial(fill_trace, ExecutionTrace(), refs, 4000))
            per_event[n_items] = calls / 4000
        assert per_event[128] / per_event[64] <= 1.05, per_event

    def test_trace_queries_calls_linear_in_events(self):
        # The query bundle per event: 13.73 at 2 000 events, 13.61 at
        # 4 000 (32 items); 13.15 and 13.07 with refs hashed in C, 10.2 and
        # 10.1 with each match derived once; 16.2 and 16.1 since
        # ``writes_to`` / ``events_of_kind`` build the views they return.  A
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


class TestRetentionBudget:
    def test_trace_keeps_no_tracked_object_per_event(self):
        # GC-tracked objects a fresh trace still holds after 4 000 recorded
        # events (2 000 spontaneous writes, 2 000 generated notifications),
        # counted after a full collection: 3.11 per event while the trace
        # kept an ``Event``, its ``EventDesc`` and values tuple and a
        # journal view per write; 0.05 since it keeps rows of atoms (what
        # is left is per item and per family, not per event).  Objects,
        # not collector passes: how a CPython version schedules its passes
        # does not move this count.
        assert retained_per_event(wire=False) <= 0.25

    def test_trace_keeps_no_tracked_object_per_wire_trigger(self):
        # The same events with each trigger carried by value, as a decoded
        # frame carries it: 2.57 per event while the trace kept every such
        # trigger whole, ~0.05 since a faithful copy resolves to the row it
        # names by ``(site, seq)``.
        assert retained_per_event(wire=True) <= 0.25


def retained_per_event(wire: bool) -> float:
    refs = [item("F", f"i{k}") for k in range(64)]
    fill_trace(ExecutionTrace(), refs, 400, wire)  # lazy imports, caches
    trace = ExecutionTrace()
    gc.collect()
    before = len(gc.get_objects())
    fill_trace(trace, refs, 4000, wire)
    gc.collect()
    per_event = (len(gc.get_objects()) - before) / len(trace)
    assert len(trace) == 4000
    assert not trace._foreign
    return per_event
