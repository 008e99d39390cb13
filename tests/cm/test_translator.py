"""Tests for the CM-Translator base behaviour through the relational one."""

import pytest

from cm_helpers import EXACT_SERVICE, two_site_relational

from repro.cm import CMRID, ConstraintManager, Scenario
from repro.cm.translators.relational import RelationalTranslator
from repro.core.errors import ConfigurationError, UnsupportedOperationError
from repro.core.events import EventKind
from repro.core.interfaces import InterfaceKind
from repro.core.items import MISSING, DataItemRef
from repro.core.timebase import seconds
from repro.ris.relational import RelationalDatabase
from repro.sim.failures import FailureKind, FailurePlan, FailureWindow


def ref1(key="e1"):
    return DataItemRef("salary1", (key,))


def ref2(key="e1"):
    return DataItemRef("salary2", (key,))


class TestWrites:
    def test_write_request_records_wr_then_w(self):
        cm, __, hq, ___, translator_b = two_site_relational()
        cm.scenario.sim.at(
            seconds(1), lambda: translator_b.request_write(ref2(), 100.0)
        )
        cm.run(until=seconds(5))
        kinds = [e.desc.kind for e in cm.scenario.trace.events]
        assert kinds == [EventKind.WRITE_REQUEST, EventKind.WRITE]
        assert hq.query("SELECT salary FROM employees WHERE empid = 'e1'") == [
            (100.0,)
        ]

    def test_write_upserts_then_updates(self):
        cm, __, hq, ___, translator_b = two_site_relational()
        cm.scenario.sim.at(
            seconds(1), lambda: translator_b.request_write(ref2(), 1.0)
        )
        cm.scenario.sim.at(
            seconds(2), lambda: translator_b.request_write(ref2(), 2.0)
        )
        cm.run(until=seconds(5))
        assert hq.query("SELECT COUNT(*) FROM employees")[0] == (1,)
        assert cm.scenario.trace.current_value(ref2()) == 2.0

    def test_write_missing_deletes(self):
        cm, __, hq, ___, translator_b = two_site_relational()
        cm.scenario.sim.at(
            seconds(1), lambda: translator_b.request_write(ref2(), 1.0)
        )
        cm.scenario.sim.at(
            seconds(2), lambda: translator_b.request_write(ref2(), MISSING)
        )
        cm.run(until=seconds(5))
        assert hq.query("SELECT COUNT(*) FROM employees")[0] == (0,)

    def test_unoffered_write_interface_rejected(self):
        cm, __, ___, translator_a, ____ = two_site_relational()
        with pytest.raises(UnsupportedOperationError):
            translator_a.request_write(ref1(), 1.0)

    def test_writes_complete_in_request_order(self):
        cm, __, ___, ____, translator_b = two_site_relational()
        cm.scenario.sim.at(
            seconds(1),
            lambda: (
                translator_b.request_write(ref2("a"), 1.0),
                translator_b.request_write(ref2("b"), 2.0),
                translator_b.request_write(ref2("c"), 3.0),
            ),
        )
        cm.run(until=seconds(5))
        writes = [
            e.desc.item.args[0]
            for e in cm.scenario.trace.events
            if e.desc.kind is EventKind.WRITE
        ]
        assert writes == ["a", "b", "c"]


class TestReads:
    def test_read_delivers_response_to_shell(self):
        cm, branch, __, translator_a, ___ = two_site_relational()
        branch.execute("INSERT INTO employees VALUES ('e1', 50.0)")
        cm.scenario.sim.at(
            seconds(1), lambda: translator_a.request_read(ref1())
        )
        cm.run(until=seconds(5))
        responses = [
            e for e in cm.scenario.trace.events
            if e.desc.kind is EventKind.READ_RESPONSE
        ]
        assert len(responses) == 1
        assert responses[0].desc.values == (50.0,)

    def test_read_of_absent_item_returns_missing(self):
        cm, __, ___, translator_a, ____ = two_site_relational()
        cm.scenario.sim.at(
            seconds(1), lambda: translator_a.request_read(ref1("ghost"))
        )
        cm.run(until=seconds(5))
        response = next(
            e for e in cm.scenario.trace.events
            if e.desc.kind is EventKind.READ_RESPONSE
        )
        assert response.desc.values == (MISSING,)

    def test_enumerate_refs(self):
        cm, branch, __, translator_a, ___ = two_site_relational()
        branch.execute(
            "INSERT INTO employees VALUES ('e1', 1.0), ('e2', 2.0)"
        )
        refs = translator_a.enumerate_refs("salary1")
        assert refs == [ref1("e1"), ref1("e2")]


class TestNotifications:
    def test_spontaneous_write_produces_ws_then_n(self):
        cm, __, ___, translator_a, ____ = two_site_relational()
        translator_a.setup_notify("salary1")
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 9.0)
        )
        cm.run(until=seconds(5))
        kinds = [e.desc.kind for e in cm.scenario.trace.events]
        assert kinds == [EventKind.SPONTANEOUS_WRITE, EventKind.NOTIFY]
        n_event = cm.scenario.trace.events[1]
        assert n_event.trigger is cm.scenario.trace.events[0]
        assert n_event.rule is not None

    def test_cm_writes_are_not_echoed(self):
        cm, branch, __, translator_a, ____ = two_site_relational()
        translator_a.setup_notify("salary1")
        # No write interface offered for salary1; drive natively to simulate
        # what a CM-originated write looks like to the trigger layer.
        cm.scenario.sim.at(
            seconds(1),
            lambda: translator_a._native_write(ref1(), 3.0),
        )
        cm.run(until=seconds(5))
        kinds = [e.desc.kind for e in cm.scenario.trace.events]
        assert EventKind.NOTIFY not in kinds

    def test_unoffered_notify_rejected(self):
        cm, __, ___, ____, translator_b = two_site_relational()
        with pytest.raises(UnsupportedOperationError):
            translator_b.setup_notify("salary2")


class TestWiring:
    def test_unattached_translator_raises_configuration_error(self):
        # attach() binds the shell's site, clock, trace, plan and obs as
        # plain attributes; before it, using them is a wiring mistake, not
        # an AttributeError.
        hq = RelationalDatabase("hq")
        rid = (
            CMRID("relational", "hq")
            .bind("salary2", params=("n",), table="employees")
            .offer("salary2", InterfaceKind.WRITE, bound_seconds=2.0)
        )
        translator = RelationalTranslator(hq, rid)
        assert translator.shell is None
        with pytest.raises(ConfigurationError, match="not attached"):
            translator.request_write(ref2(), 1.0)
        with pytest.raises(ConfigurationError, match="not attached"):
            translator.apply_spontaneous_write(ref2(), 1.0)


class TestFailureClassification:
    def test_crash_reports_logical_failure_once(self):
        cm, __, hq, ___, translator_b = two_site_relational()
        hq.set_available(False)
        cm.scenario.sim.at(
            seconds(1), lambda: translator_b.request_write(ref2(), 1.0)
        )
        cm.scenario.sim.at(
            seconds(2), lambda: translator_b.request_write(ref2(), 2.0)
        )
        cm.run(until=seconds(10))
        notices = cm.board.notices
        assert len([n for n in notices if not n.recovered]) == 1
        assert notices[0].kind is FailureKind.LOGICAL

    def test_busy_retries_then_succeeds_with_recovery_notice(self):
        cm, __, hq, ___, translator_b = two_site_relational()
        hq.set_busy(True)
        cm.scenario.sim.at(
            seconds(1), lambda: translator_b.request_write(ref2(), 1.0)
        )
        cm.scenario.sim.at(seconds(1.2), lambda: hq.set_busy(False))
        cm.run(until=seconds(30))
        assert hq.query("SELECT salary FROM employees")[0] == (1.0,)
        kinds = [(n.kind, n.recovered) for n in cm.board.notices]
        assert (FailureKind.METRIC, False) in kinds
        assert (FailureKind.METRIC, True) in kinds

    def test_busy_retry_recovers_on_an_unbounded_interface(self):
        # WRITE offered with no bound (``bound_seconds`` defaults to 0): the
        # retry through BUSY still reports METRIC, and the write that then
        # succeeds — it cannot miss a bound it does not have — must report
        # the recovery, or every metric guarantee touching the site reads
        # invalid to the horizon.
        cm = ConstraintManager(Scenario(seed=0))
        cm.add_site("ny")
        hq = RelationalDatabase("hq")
        hq.execute("CREATE TABLE employees (empid TEXT PRIMARY KEY, salary REAL)")
        rid = (
            CMRID("relational", "hq")
            .bind(
                "salary2",
                params=("n",),
                table="employees",
                key_column="empid",
                value_column="salary",
            )
            .offer("salary2", InterfaceKind.WRITE)
        )
        translator = cm.add_source("ny", hq, rid, EXACT_SERVICE)
        sim = cm.scenario.sim
        hq.set_busy(True)
        sim.at(seconds(1), lambda: translator.request_write(ref2(), 1.0))
        sim.at(seconds(1.2), lambda: hq.set_busy(False))
        sim.at(seconds(10), lambda: translator.request_write(ref2(), 2.0))
        sim.at(seconds(11), lambda: translator.request_write(ref2(), 3.0))
        cm.run(until=seconds(30))
        assert hq.query("SELECT salary FROM employees")[0] == (3.0,)
        assert translator._failed is None
        assert [(n.kind, n.recovered) for n in cm.board.notices] == [
            (FailureKind.METRIC, False),
            (FailureKind.METRIC, True),
        ]

    def test_bound_overrun_self_reported(self):
        plan = FailurePlan()
        plan.add(
            FailureWindow(
                "ny", FailureKind.METRIC, 0, seconds(100), slowdown=200.0
            )
        )
        cm, __, ___, ____, translator_b = two_site_relational(
            failure_plan=plan
        )
        cm.scenario.sim.at(
            seconds(1), lambda: translator_b.request_write(ref2(), 1.0)
        )
        cm.run(until=seconds(60))
        # 0.03s x 200 = 6s > the offered 2s write bound -> metric notice.
        metric = [
            n for n in cm.board.notices
            if n.kind is FailureKind.METRIC and not n.recovered
        ]
        assert metric

    def test_failure_notices_reach_peer_shells(self):
        cm, __, hq, ___, translator_b = two_site_relational()
        hq.set_available(False)
        cm.scenario.sim.at(
            seconds(1), lambda: translator_b.request_write(ref2(), 1.0)
        )
        cm.run(until=seconds(10))
        assert cm.shell("sf").failure_log  # propagated over the network
