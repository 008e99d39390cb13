"""Tests for the workload generators."""

from cm_helpers_root import two_site  # noqa: F401  (fixture import)

from repro.core.events import EventKind
from repro.core.items import MISSING, DataItemRef
from repro.core.timebase import DAY, Ticks, clock_time, seconds, time_of_day
from repro.workloads import BankingWorkload, PersonnelWorkload, UpdateStream
from repro.workloads.generators import duplicate_heavy, random_walk


class TestUpdateStream:
    def test_poisson_count_is_plausible(self, two_site):
        cm, *_ = two_site
        stream = UpdateStream(
            cm, "salary1", ["e1"], rate=1.0, duration=seconds(200)
        )
        cm.run(until=seconds(210))
        # Poisson(200): within 5 sigma of the mean.
        assert 130 <= stream.stats.updates <= 270

    def test_deterministic_given_seed(self):
        from cm_helpers_root import build_two_site

        counts = []
        for __ in range(2):
            cm, *_ = build_two_site(seed=123)
            stream = UpdateStream(
                cm, "salary1", ["e1", "e2"], rate=2.0, duration=seconds(50)
            )
            cm.run(until=seconds(60))
            values = [
                e.written_value
                for e in cm.scenario.trace.events
                if e.desc.kind is EventKind.SPONTANEOUS_WRITE
            ]
            counts.append(values)
        assert counts[0] == counts[1]

    def test_updates_confined_to_window(self, two_site):
        cm, *_ = two_site
        UpdateStream(
            cm, "salary1", ["e1"], rate=5.0,
            duration=seconds(50), start=seconds(100),
        )
        cm.run(until=seconds(300))
        times = [
            e.time for e in cm.scenario.trace.events
            if e.desc.kind is EventKind.SPONTANEOUS_WRITE
        ]
        assert times and all(seconds(100) <= t < seconds(150) for t in times)


class TestValueModels:
    class FakeStream:
        def __init__(self):
            import random

            self.rng = random.Random(0)

    def test_uniform_bounds(self, two_site):
        # Without a value model a stream draws uniformly from [0, 100].
        cm, *_ = two_site
        UpdateStream(cm, "salary1", ["e1"], rate=2.0, duration=seconds(25))
        cm.run(until=seconds(30))
        values = [
            e.written_value
            for e in cm.scenario.trace.events
            if e.desc.kind is EventKind.SPONTANEOUS_WRITE
        ]
        assert len(values) > 10
        assert all(0.0 <= value <= 100.0 for value in values)

    def test_random_walk_is_per_key(self):
        model = random_walk(step=1.0, start=100.0)
        stream = self.FakeStream()
        a_values = [model(stream, "a") for __ in range(5)]
        b_first = model(stream, "b")
        # Key b starts fresh from 100 +/- 1 even after a's walk moved.
        assert abs(b_first - 100.0) <= 1.0
        assert all(abs(x - y) <= 1.0 for x, y in zip(a_values, a_values[1:]))

    def test_duplicate_heavy_repeats(self):
        model = duplicate_heavy(values=(1, 2, 3), repeat_probability=1.0)
        stream = self.FakeStream()
        first = model(stream, "k")
        assert all(model(stream, "k") == first for __ in range(10))


class TestPersonnelWorkload:
    def test_roster_then_updates(self, two_site):
        cm, *_ = two_site
        workload = PersonnelWorkload(
            cm, employee_count=5, rate=1.0, duration=seconds(60)
        )
        cm.run(until=seconds(70))
        assert len(workload.employees) == 5
        for employee in workload.employees:
            value = cm.scenario.trace.current_value(
                DataItemRef("salary1", (employee,))
            )
            assert value is not MISSING


class TestBankingWorkload:
    def test_updates_only_in_business_hours(self):
        from cm_helpers_root import build_banking_site

        cm = build_banking_site()
        workload = BankingWorkload(cm, account_count=3, days=2, rate=0.05)
        cm.run(until=2 * DAY)
        update_times = [
            e.time
            for e in cm.scenario.trace.events
            if e.desc.kind is EventKind.SPONTANEOUS_WRITE and e.time > 0
        ]
        assert workload.updates_scheduled > 0
        for time in update_times:
            tod = time_of_day(time)
            assert clock_time(9) <= tod < clock_time(17)
