"""Call budgets for the write path and the verdict: counts, not clocks.

One propagation — ``Ws`` at the hub, notify, rule, network, remote shell,
``WR``, translator write, ``W`` — is the toolkit's unit of work, and what it
costs is mostly a fixed tax of small Python-level calls per hop.  These
guards count ``call`` events under ``sys.setprofile`` (deterministic, the
same on every box), so a ``_require_shell()``-style property, a per-call
registry probe or a Python-level queue comparison creeping back into the
hot path fails here long before a benchmark would show it.

Run these first after touching ``cm/translator.py``, ``sim/scheduler.py``,
``sim/network.py`` or ``ExecutionTrace.record`` — and, for the verdict
budget, ``core/guarantees/`` or ``validate_trace``.
"""

import random
import sys

from repro.cm.verify import verify
from repro.core.timebase import seconds
from repro.experiments.e10_scale import build_federation
from repro.sim.scheduler import Simulator


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
