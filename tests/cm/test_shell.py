"""Tests for the CM-Shell rule engine."""

import pytest

from cm_helpers import two_site_relational

from repro.core.dsl import parse_rule
from repro.core.errors import ConfigurationError, SpecError
from repro.core.events import EventKind
from repro.core.items import MISSING, DataItemRef
from repro.core.timebase import seconds


def install_propagation(cm):
    rule = parse_rule("N(salary1(n), b) -> [5] WR(salary2(n), b)", name="prop")
    cm.shell("sf").install(rule, "ny")
    cm.shell("sf").translator_for("salary1").setup_notify("salary1")
    return rule


class TestRuleFiring:
    def test_cross_site_rhs_goes_over_the_network(self):
        cm, __, hq, ___, ____ = two_site_relational()
        install_propagation(cm)
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 7.0)
        )
        cm.run(until=seconds(10))
        assert hq.query("SELECT salary FROM employees WHERE empid = 'e1'") == [
            (7.0,)
        ]
        assert cm.scenario.network.messages_sent >= 1

    def test_non_matching_events_ignored(self):
        cm, __, ___, ____, _____ = two_site_relational()
        rule = parse_rule("N(other(n), b) -> [5] WR(salary2(n), b)")
        cm.shell("sf").install(rule, "ny")
        cm.shell("sf").translator_for("salary1").setup_notify("salary1")
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 7.0)
        )
        cm.run(until=seconds(10))
        assert cm.shell("sf").rules_fired == 0

    def test_lhs_condition_gates_firing(self):
        cm, __, hq, ___, ____ = two_site_relational()
        rule = parse_rule(
            "N(salary1(n), b) & b > 100 -> [5] WR(salary2(n), b)"
        )
        cm.shell("sf").install(rule, "ny")
        cm.shell("sf").translator_for("salary1").setup_notify("salary1")
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 50.0)
        )
        cm.scenario.sim.at(
            seconds(2), lambda: cm.spontaneous_write("salary1", ("e2",), 500.0)
        )
        cm.run(until=seconds(10))
        assert hq.query("SELECT empid FROM employees") == [("e2",)]

    def test_step_conditions_read_private_store(self):
        cm, __, hq, ___, ____ = two_site_relational()
        rule = parse_rule(
            "N(salary1(n), b) -> [5] (Cache(n) != b) ? WR(salary2(n), b), "
            "W(Cache(n), b)",
            name="cached",
        )
        cm.locations.register("Cache", "ny")
        cm.shell("sf").install(rule, "ny")
        cm.shell("sf").translator_for("salary1").setup_notify("salary1")
        for t, value in ((1, 5.0), (2, 5.0), (3, 6.0)):
            cm.scenario.sim.at(
                seconds(t),
                lambda v=value: cm.spontaneous_write("salary1", ("e1",), v),
            )
        cm.run(until=seconds(10))
        write_requests = [
            e for e in cm.scenario.trace.events
            if e.desc.kind is EventKind.WRITE_REQUEST
        ]
        assert len(write_requests) == 2  # the duplicate was suppressed

    def test_private_write_records_event_with_provenance(self):
        cm, __, ___, ____, _____ = two_site_relational()
        rule = parse_rule("N(salary1(n), b) -> [5] W(Copy(n), b)", name="keep")
        cm.locations.register("Copy", "sf")
        cm.shell("sf").install(rule, "sf")
        cm.shell("sf").translator_for("salary1").setup_notify("salary1")
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 7.0)
        )
        cm.run(until=seconds(10))
        private_writes = [
            e for e in cm.scenario.trace.events
            if e.desc.kind is EventKind.WRITE
            and e.desc.item.name == "Copy"
        ]
        assert len(private_writes) == 1
        assert private_writes[0].rule is rule
        assert cm.shell("sf").store.read_local(
            DataItemRef("Copy", ("e1",))
        ) == 7.0

    def test_writing_database_item_directly_rejected(self):
        cm, __, ___, ____, _____ = two_site_relational()
        rule = parse_rule("N(salary1(n), b) -> [5] W(salary1(n), b)")
        cm.shell("sf").install(rule, "sf")
        cm.shell("sf").translator_for("salary1").setup_notify("salary1")
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 7.0)
        )
        with pytest.raises(SpecError):
            cm.run(until=seconds(10))


class TestPeriodicRules:
    def test_timer_drives_polling(self):
        cm, branch, hq, ___, ____ = two_site_relational(offer_notify=False)
        branch.execute("INSERT INTO employees VALUES ('e1', 42.0)")
        poll = parse_rule("P(10) -> [1] RR(salary1(n))", name="poll")
        forward = parse_rule(
            "R(salary1(n), b) -> [5] WR(salary2(n), b)", name="fwd"
        )
        cm.shell("sf").install(poll, "sf")
        cm.shell("sf").install(forward, "ny")
        cm.run(until=seconds(25))
        assert hq.query("SELECT salary FROM employees") == [(42.0,)]
        p_events = [
            e for e in cm.scenario.trace.events
            if e.desc.kind is EventKind.PERIODIC
        ]
        assert len(p_events) == 2  # t=10s and t=20s

    def test_enumerating_read_covers_all_instances(self):
        cm, branch, hq, ___, ____ = two_site_relational(offer_notify=False)
        branch.execute(
            "INSERT INTO employees VALUES ('e1', 1.0), ('e2', 2.0)"
        )
        poll = parse_rule("P(10) -> [1] RR(salary1(n))", name="poll")
        forward = parse_rule(
            "R(salary1(n), b) -> [5] WR(salary2(n), b)", name="fwd"
        )
        cm.shell("sf").install(poll, "sf")
        cm.shell("sf").install(forward, "ny")
        cm.run(until=seconds(15))
        rows = hq.query("SELECT empid, salary FROM employees ORDER BY empid")
        assert rows == [("e1", 1.0), ("e2", 2.0)]

    def test_phased_timer_fires_at_phase(self):
        from repro.core.timebase import DAY, clock_time

        cm, branch, __, ___, ____ = two_site_relational(offer_notify=False)
        poll = parse_rule("P(86400) -> [1] RR(salary1(n))", name="daily")
        cm.shell("sf").install(poll, "sf", phase=clock_time(17))
        cm.run(until=DAY)
        p_events = [
            e for e in cm.scenario.trace.events
            if e.desc.kind is EventKind.PERIODIC
        ]
        assert [e.time for e in p_events] == [clock_time(17)]

    def test_phase_on_non_periodic_rule_rejected(self):
        cm, __, ___, ____, _____ = two_site_relational()
        rule = parse_rule("N(salary1(n), b) -> [5] WR(salary2(n), b)")
        with pytest.raises(SpecError):
            cm.shell("sf").install(rule, "ny", phase=seconds(1))


class TestBinderEvaluation:
    def test_binder_captures_private_value(self):
        cm, __, ___, ____, _____ = two_site_relational()
        shell = cm.shell("sf")
        shell.store.write(DataItemRef("Level"), 9, 0)
        rule = parse_rule(
            "N(salary1(n), b) & v == Level -> [5] W(Seen(n), v)",
            name="capture",
        )
        cm.locations.register("Seen", "sf")
        shell.install(rule, "sf")
        shell.translator_for("salary1").setup_notify("salary1")
        cm.scenario.sim.at(
            seconds(1), lambda: cm.spontaneous_write("salary1", ("e1",), 7.0)
        )
        cm.run(until=seconds(10))
        assert shell.store.read_local(DataItemRef("Seen", ("e1",))) == 9


class TestInstallValidation:
    def test_duplicate_name_with_different_rule_rejected(self):
        cm, __, ___, ____, _____ = two_site_relational()
        shell = cm.shell("sf")
        first = parse_rule(
            "N(salary1(n), b) -> [5] WR(salary2(n), b)", name="prop"
        )
        imposter = parse_rule(
            "N(salary1(n), b) & b > 0 -> [1] WR(salary2(n), b)", name="prop"
        )
        shell.install(first, "ny")
        with pytest.raises(ConfigurationError, match="prop"):
            shell.install(imposter, "ny")
        # The index must be unchanged by the rejected install.
        assert shell.stats()["rules_installed"] == 1

    def test_reinstalling_identical_rule_is_allowed(self):
        cm, __, ___, ____, _____ = two_site_relational()
        shell = cm.shell("sf")
        rule = parse_rule(
            "N(salary1(n), b) -> [5] WR(salary2(n), b)", name="prop"
        )
        shell.install(rule, "ny")
        shell.install(rule, "ny")

    def test_same_name_allowed_on_different_shells(self):
        cm, __, ___, ____, _____ = two_site_relational()
        rule_sf = parse_rule(
            "N(salary1(n), b) -> [5] WR(salary2(n), b)", name="prop"
        )
        rule_ny = parse_rule(
            "N(salary2(n), b) -> [5] W(Echo(n), b)", name="prop"
        )
        cm.shell("sf").install(rule_sf, "ny")
        cm.shell("ny").install(rule_ny, "ny")

    def test_remote_registration_with_a_different_rule_rejected(self):
        cm, __, ___, ____, _____ = two_site_relational()
        shell = cm.shell("ny")
        first = parse_rule(
            "N(salary1(n), b) -> [5] WR(salary2(n), b)", name="prop"
        )
        imposter = parse_rule(
            "N(salary1(n), b) & b > 0 -> [1] WR(salary2(n), b)", name="prop"
        )
        shell.register_remote_rule(first)
        with pytest.raises(ConfigurationError, match="prop"):
            shell.register_remote_rule(imposter)
        assert shell._programs["prop"].rule is first

    def test_install_over_a_different_remote_rule_rejected(self):
        # A wire firing names its rule; installing a different definition
        # under a registered remote rule's name would run the wrong program.
        cm, __, ___, ____, _____ = two_site_relational()
        shell = cm.shell("ny")
        remote = parse_rule(
            "N(salary1(n), b) -> [5] WR(salary2(n), b)", name="prop"
        )
        local = parse_rule("N(salary2(n), b) -> [5] W(Echo(n), b)", name="prop")
        shell.register_remote_rule(remote)
        with pytest.raises(ConfigurationError, match="prop"):
            shell.install(local, "ny")
        assert shell.stats()["rules_installed"] == 0
        assert shell._programs["prop"].rule is remote

    def test_identical_remote_registration_is_a_no_op(self):
        cm, __, ___, ____, _____ = two_site_relational()
        shell = cm.shell("ny")
        rule = parse_rule(
            "N(salary1(n), b) -> [5] WR(salary2(n), b)", name="prop"
        )
        shell.register_remote_rule(rule)
        program = shell._programs["prop"]
        shell.register_remote_rule(rule)
        assert shell._programs["prop"] is program
        assert shell.stats()["rules_installed"] == 0
