"""Integration tests of the Section 5 failure semantics."""

from repro.core.events import EventKind
from repro.core.items import DataItemRef
from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario
from repro.sim.failures import FailureKind, FailurePlan, FailureWindow
from repro.sim.network import FixedLatency
from repro.workloads import UpdateStream
from repro.workloads.generators import random_walk


def drive(salary, duration=200.0, drain=600.0):
    UpdateStream(
        salary.cm,
        "salary1",
        ["e1", "e2"],
        rate=0.3,
        duration=seconds(duration),
        value_model=random_walk(step=10.0, start=100.0),
    )
    salary.cm.run(until=seconds(duration + drain))
    return salary


class TestMetricFailure:
    def plan(self):
        plan = FailurePlan()
        plan.add(
            FailureWindow(
                site="ny",
                kind=FailureKind.METRIC,
                start=seconds(60),
                end=seconds(100),
                slowdown=500.0,
            )
        )
        return plan

    def test_board_marks_only_metric_guarantees(self):
        salary = drive(
            build_salary_scenario(
                "propagation", seed=20, failure_plan=self.plan()
            )
        )
        board = salary.cm.board
        horizon = salary.scenario.trace.horizon
        for guarantee in board.guarantees():
            invalid = bool(board.invalid_intervals(guarantee, horizon))
            assert invalid == guarantee.metric

    def test_work_is_delayed_not_lost(self):
        salary = drive(
            build_salary_scenario(
                "propagation", seed=21, failure_plan=self.plan()
            )
        )
        reports = salary.cm.check_guarantees()
        nonmetric = [r for n, r in reports.items() if "κ=" not in n]
        assert nonmetric and all(r.valid for r in nonmetric)


class TestLogicalFailure:
    def test_crash_invalidates_all_until_reset(self):
        salary = build_salary_scenario("propagation", seed=22)
        salary.cm.scenario.sim.at(
            seconds(60), lambda: salary.hq_db.set_available(False)
        )
        salary.cm.scenario.sim.at(
            seconds(100), lambda: salary.hq_db.set_available(True)
        )
        drive(salary)
        board = salary.cm.board
        for guarantee in board.guarantees():
            assert not board.is_valid(guarantee)  # sticky until reset
        board.reset_site("ny", salary.scenario.trace.horizon)
        for guarantee in board.guarantees():
            assert board.is_valid(guarantee)

    def test_writes_during_crash_are_lost(self):
        from repro.core.guarantees import leads

        salary = build_salary_scenario("propagation", seed=23)
        salary.cm.scenario.sim.at(
            seconds(60), lambda: salary.hq_db.set_available(False)
        )
        salary.cm.scenario.sim.at(
            seconds(100), lambda: salary.hq_db.set_available(True)
        )
        # One update squarely inside the outage.
        salary.cm.scenario.sim.at(
            seconds(70),
            lambda: salary.cm.spontaneous_write("salary1", ("e1",), 777.0),
        )
        salary.cm.scenario.sim.at(
            seconds(150),
            lambda: salary.cm.spontaneous_write("salary1", ("e1",), 888.0),
        )
        salary.cm.run(until=seconds(400))
        report = leads("salary1", "salary2").check(salary.scenario.trace)
        assert not report.valid
        assert any("777" in ce for ce in report.counterexamples)


class TestSilentLoss:
    def test_undetectable_but_harmful(self):
        plan = FailurePlan()
        plan.add(
            FailureWindow(
                site="sf",
                kind=FailureKind.SILENT_NOTIFY_LOSS,
                start=seconds(60),
                end=seconds(100),
                drop_probability=1.0,
            )
        )
        salary = build_salary_scenario(
            "propagation", seed=24, failure_plan=plan
        )
        salary.cm.scenario.sim.at(
            seconds(70),
            lambda: salary.cm.spontaneous_write("salary1", ("e1",), 777.0),
        )
        salary.cm.scenario.sim.at(
            seconds(150),
            lambda: salary.cm.spontaneous_write("salary1", ("e1",), 888.0),
        )
        salary.cm.run(until=seconds(400))
        # Nothing was detected...
        assert salary.cm.board.notices == []
        # ...but the value was genuinely missed.
        from repro.core.guarantees import leads

        report = leads("salary1", "salary2").check(salary.scenario.trace)
        assert not report.valid


class TestPlanGainsWindowsAfterWiring:
    """``FailurePlan.add`` is public: a window added after the translators
    and channels have already served operations must take effect on the very
    next one.  (What the run path resolves once — interfaces, streams,
    instruments — never includes whether the plan is empty.)"""

    def served(self):
        """A propagation scenario that has completed one full hop chain."""
        plan = FailurePlan()
        salary = build_salary_scenario("propagation", seed=30, failure_plan=plan)
        salary.cm.spontaneous_write("salary1", ("e1",), 100.0)
        salary.cm.run(until=seconds(20))
        assert salary.hq_db.query("SELECT salary FROM employees") == [(100.0,)]
        assert salary.cm.board.notices == []
        return salary, plan

    def test_logical_window_drops_the_next_operation(self):
        salary, plan = self.served()
        network = salary.scenario.network
        plan.add(FailureWindow("ny", FailureKind.LOGICAL, seconds(20), seconds(60)))
        # The channel drops the firing bound for the dead site...
        salary.cm.spontaneous_write("salary1", ("e1",), 200.0)
        salary.cm.run(until=seconds(40))
        assert network.messages_dropped == 1
        # ...and the translator there loses a write handed to it directly.
        translator = salary.cm.shell("ny").translator_for("salary2")
        translator.request_write(DataItemRef("salary2", ("e1",)), 300.0)
        salary.cm.run(until=seconds(50))
        assert salary.hq_db.query("SELECT salary FROM employees") == [(100.0,)]
        assert [n.kind for n in translator.shell.failure_log] == [FailureKind.LOGICAL]

    def test_metric_window_slows_the_next_operation(self):
        salary, plan = self.served()
        (first,) = salary.scenario.trace.events_of_kind(EventKind.WRITE)
        plan.add(
            FailureWindow(
                "ny", FailureKind.METRIC, seconds(20), seconds(60), slowdown=200.0
            )
        )
        plan.add(
            FailureWindow(
                "sf", FailureKind.METRIC, seconds(20), seconds(60), slowdown=10.0
            )
        )
        sent = salary.scenario.sim.now
        salary.cm.spontaneous_write("salary1", ("e1",), 200.0)
        salary.cm.run(until=seconds(60))
        __, second = salary.scenario.trace.events_of_kind(EventKind.WRITE)
        # Channel sf->ny: 0.05 s x 10; translator at ny: ~0.03 s x 200 > the
        # 2 s write bound, so it self-reports a metric failure.
        assert second.time - sent > first.time + seconds(4)
        latency = salary.scenario.obs.metrics.histogram(
            "net_latency", src="sf", dst="ny"
        )
        assert latency.max == seconds(0.5)
        assert [(n.kind, n.recovered) for n in salary.cm.board.notices] == [
            (FailureKind.METRIC, False)
        ]

    def test_silent_loss_window_drops_the_next_notification(self):
        salary, plan = self.served()
        plan.add(
            FailureWindow(
                "sf",
                FailureKind.SILENT_NOTIFY_LOSS,
                seconds(20),
                seconds(60),
                drop_probability=1.0,
            )
        )
        salary.cm.spontaneous_write("salary1", ("e1",), 200.0)
        salary.cm.run(until=seconds(40))
        translator = salary.cm.shell("sf").translator_for("salary1")
        assert translator.notifications_suppressed == 1
        assert translator.notifications_delivered == 1
        assert salary.hq_db.query("SELECT salary FROM employees") == [(100.0,)]
        assert salary.cm.board.notices == []

    def test_logical_window_drops_a_message_already_in_flight(self):
        salary, plan = self.served()
        network = salary.scenario.network
        network.set_channel_latency("sf", "ny", FixedLatency(seconds(5)))
        salary.cm.spontaneous_write("salary1", ("e1",), 200.0)
        salary.cm.run(until=seconds(21))
        in_flight = salary.scenario.obs.metrics.gauge(
            "net_in_flight", src="sf", dst="ny"
        )
        assert (network.messages_sent, in_flight.value) == (2, 1)
        # ny dies while the firing is on the wire: the send-side check has
        # passed, so only the delivery-side one can drop it.
        plan.add(FailureWindow("ny", FailureKind.LOGICAL, seconds(21), seconds(60)))
        salary.cm.run(until=seconds(40))
        assert network.messages_dropped == 1
        assert (in_flight.value, in_flight.high) == (0, 1)
        delivered = salary.scenario.obs.metrics.value(
            "net_messages", src="sf", dst="ny"
        )
        assert delivered == 1  # the first hop, before the window
        assert salary.hq_db.query("SELECT salary FROM employees") == [(100.0,)]
