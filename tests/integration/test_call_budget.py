"""Call budgets for the write path: counts, not clocks.

One propagation — ``Ws`` at the hub, notify, rule, network, remote shell,
``WR``, translator write, ``W`` — is the toolkit's unit of work, and what it
costs is mostly a fixed tax of small Python-level calls per hop.  These
guards count ``call`` events under ``sys.setprofile`` (deterministic, the
same on every box), so a ``_require_shell()``-style property, a per-call
registry probe or a Python-level queue comparison creeping back into the
hot path fails here long before a benchmark would show it.

Run these first after touching ``cm/translator.py``, ``sim/scheduler.py``,
``sim/network.py`` or ``ExecutionTrace.record``.
"""

import random
import sys

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
        # The ``fanout_sim`` federation of ``benchmarks/e2e``: a hub and 32
        # relational replicas, one propagated copy constraint each.  219
        # before translators bound their shell's state at attach() and
        # resolved interfaces per family, 124 after; the budget sits halfway
        # so it catches a regression without pinning the exact count.
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
        calls = python_calls(lambda: cm.run(until=seconds(40)))
        propagations = updates * replicas
        writes = sum(
            translator.writes_requested
            for shell in cm.shells.values()
            for translator in shell.translators.values()
        )
        assert writes == propagations
        assert calls / propagations <= 170
