"""Call budgets for the write path and the verdict: counts, not clocks.

One propagation — ``Ws`` at the hub, notify, rule, network, remote shell,
``WR``, translator write, ``W`` — is the toolkit's unit of work, and what it
costs is mostly a fixed tax of small Python-level calls per hop.  These
guards count ``call`` events under ``sys.setprofile`` (deterministic, the
same on every box), so a ``_require_shell()``-style property, a per-call
registry probe or a Python-level queue comparison creeping back into the
hot path fails here long before a benchmark would show it.

Run these first after touching ``cm/translator.py``, ``sim/scheduler.py``,
``sim/network.py`` or ``ExecutionTrace.record`` — for the dispatch
budgets, ``cm/shell.py`` or ``cm/dispatch.py``; for the verdict budget,
``core/guarantees/`` or ``validate_trace``.
"""

import gc
import random
import sys

import pytest

from repro.cm import ConstraintManager, Scenario
from repro.cm.verify import verify
from repro.core.dsl import parse_rule
from repro.core.timebase import seconds
from repro.experiments.e10_scale import build_federation
from repro.sim.scheduler import Simulator
from repro.workloads.generators import notification_stream


def python_calls(fn) -> int:
    """Python-level function calls made while ``fn()`` runs."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


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
        # peek + step + the callback itself; the queue orders in C.  At 14
        # when entries compared through a generated ``__lt__``.
        sim = Simulator()
        callbacks = 5_000
        ticks = list(range(callbacks))
        random.Random(0).shuffle(ticks)
        for tick in ticks:
            sim.at(tick, lambda: None)
        calls = python_calls(sim.run)
        assert sim.events_processed == callbacks
        assert calls / callbacks <= 4

    def test_fanout_calls_per_propagation(self):
        # 219 before translators bound their shell's state at attach() and
        # resolved interfaces per family, 124 after; the budget sits halfway
        # so it catches a regression without pinning the exact count.
        cm, propagations = fanout_federation()
        calls = python_calls(lambda: cm.run(until=seconds(40)))
        writes = sum(
            translator.writes_requested
            for shell in cm.shells.values()
            for translator in shell.translators.values()
        )
        assert writes == propagations
        assert calls / propagations <= 170

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
        "batched, budget", [(True, 21.5), (False, 24.5)], ids=["block", "per_event"]
    )
    def test_dispatch_calls_per_event(self, batched, budget):
        # Per dispatched event (notifications plus chained writes): 18.5
        # through ingest_batch and 21.4 through record + deliver_local_event
        # once both run the one per-event kernel; about 15 % above each.
        cm = dispatch_shell(batched)
        calls = python_calls(lambda: cm.run(until=seconds(1)))
        dispatched = cm.stats()["total"]["events_processed"]
        assert dispatched == len(cm.scenario.trace) > 4096
        assert calls / dispatched <= budget

    def test_flight_recorder_calls_per_event(self):
        # The recorder's pitch is one ring append per digest: with it on,
        # each dispatched event costs exactly two more calls than with obs
        # off — the ``sim.now`` read and ``FlightRecorder.record``.
        # (21.43 -> 23.43 per event over 5 627 events when first pinned.)
        # The collector stays off while counting: finalizers of garbage
        # left by earlier tests would otherwise land in either run.
        off = dispatch_shell(False)
        on = dispatch_shell(False)
        flight = on.scenario.obs.enable_flight()
        gc.collect()
        gc.disable()
        try:
            calls_off = python_calls(lambda: off.run(until=seconds(1)))
            calls_on = python_calls(lambda: on.run(until=seconds(1)))
        finally:
            gc.enable()
        dispatched = on.stats()["total"]["events_processed"]
        assert dispatched == off.stats()["total"]["events_processed"] > 4096
        assert flight.records_taken == dispatched
        assert calls_on - calls_off == 2 * dispatched
