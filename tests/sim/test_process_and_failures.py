"""Tests for timers, failure plans, and RNG streams."""

import pytest

from repro.core.timebase import seconds
from repro.sim.failures import FailureKind, FailurePlan, FailureWindow
from repro.sim.process import PeriodicTimer
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.scheduler import Simulator


class TestPeriodicTimer:
    def test_fires_every_period(self):
        sim = Simulator()
        times = []
        PeriodicTimer(sim, seconds(10), lambda: times.append(sim.now))
        sim.run(until=seconds(35))
        assert times == [seconds(10), seconds(20), seconds(30)]

    def test_fire_immediately(self):
        sim = Simulator()
        times = []
        PeriodicTimer(sim, seconds(10), lambda: times.append(sim.now), first=sim.now)
        sim.run(until=seconds(15))
        assert times == [0, seconds(10)]

    def test_first_firing_sets_the_phase(self):
        sim = Simulator()
        times = []
        PeriodicTimer(
            sim, seconds(10), lambda: times.append(sim.now), first=seconds(3)
        )
        sim.run(until=seconds(25))
        assert times == [seconds(3), seconds(13), seconds(23)]

    def test_stop(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, seconds(10), lambda: None)
        sim.at(seconds(15), timer.stop)
        sim.run(until=seconds(100))
        assert timer.fire_count == 1

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), 0, lambda: None)


class TestFailurePlan:
    def test_empty_plan_is_benign(self):
        plan = FailurePlan()
        assert plan.slowdown_at("x", 100) == 1.0
        assert not plan.logically_failed("x", 100)
        assert plan.notify_drop_probability("x", 100) == 0.0

    def test_windows_are_half_open(self):
        plan = FailurePlan()
        plan.add(FailureWindow("x", FailureKind.LOGICAL, 10, 20))
        assert not plan.logically_failed("x", 9)
        assert plan.logically_failed("x", 10)
        assert plan.logically_failed("x", 19)
        assert not plan.logically_failed("x", 20)

    def test_slowdowns_compound(self):
        plan = FailurePlan()
        plan.add(FailureWindow("x", FailureKind.METRIC, 0, 100, slowdown=2))
        plan.add(FailureWindow("x", FailureKind.METRIC, 0, 100, slowdown=3))
        assert plan.slowdown_at("x", 50) == 6.0

    def test_other_sites_unaffected(self):
        plan = FailurePlan()
        plan.add(FailureWindow("x", FailureKind.METRIC, 0, 100, slowdown=2))
        assert plan.slowdown_at("y", 50) == 1.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            FailureWindow("x", FailureKind.METRIC, 10, 10)

    def test_bad_slowdown_rejected(self):
        with pytest.raises(ValueError):
            FailureWindow("x", FailureKind.METRIC, 0, 10, slowdown=0.5)

    def test_drop_probability_takes_max(self):
        plan = FailurePlan()
        plan.add(
            FailureWindow(
                "x", FailureKind.SILENT_NOTIFY_LOSS, 0, 100,
                drop_probability=0.3,
            )
        )
        plan.add(
            FailureWindow(
                "x", FailureKind.SILENT_NOTIFY_LOSS, 0, 100,
                drop_probability=0.8,
            )
        )
        assert plan.notify_drop_probability("x", 50) == 0.8


class TestRng:
    def test_streams_are_deterministic(self):
        a = RngRegistry(42).stream("workload")
        b = RngRegistry(42).stream("workload")
        assert [a.random() for __ in range(5)] == [
            b.random() for __ in range(5)
        ]

    def test_streams_are_independent(self):
        registry = RngRegistry(42)
        first = registry.stream("one").random()
        # Drawing from another stream must not perturb the first.
        registry2 = RngRegistry(42)
        registry2.stream("two").random()
        assert registry2.stream("one").random() == first

    def test_seed_derivation_differs_by_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_stream_cached(self):
        registry = RngRegistry(0)
        assert registry.stream("x") is registry.stream("x")
