"""One or more tests per row of CM-Lint's per-code table (DESIGN.md §6,
"CM-Lint keeps what only it catches").

A surviving code gets a configuration it must flag, one it must pass, and a
run in which it is the *only* report of a real mistake: the run completes
and every other layer of ``verify()`` is clean.  A deleted code's test,
still named after it, shows what reports that mistake now — for CM101–105
the install-time interface survey, which rejects the rule through
``cm.install_rule(...)`` before it is indexed.
"""

import pytest

from analysis_helpers import bare_two_site, codes_of, salary_cm

from repro import parse_rule, parse_rules
from repro.analysis import lint_manager
from repro.cm.verify import verify
from repro.constraints.copy import CopyConstraint
from repro.core.catalog import Suggestion
from repro.core.errors import CompileError, ConfigurationError, SpecError
from repro.core.interfaces import InterfaceKind
from repro.core.strategies import StrategySpec
from repro.core.timebase import seconds


def rule(text: str):
    (parsed,) = parse_rules(text)
    return parsed


def assert_survey_rejects(cm, site: str, text: str, match: str, **kwargs):
    """``cm.install_rule(site, rule)`` raises before indexing anything."""
    shell = cm.shell(site)
    before = len(shell._index)
    with pytest.raises(ConfigurationError, match=match):
        cm.install_rule(site, parse_rule(text), **kwargs)
    cm.stop()
    assert len(shell._index) == before


def only_lint_reports(report, code: str) -> None:
    """Every dynamic layer of ``verify()`` passed; lint alone found ``code``."""
    assert report.guarantees_ok
    assert report.trace_ok
    assert not report.silent_gaps
    assert [d.code for d in report.diagnostics] == [code]


def install_hand_built(cm, *rules, guarantees=(), private=()):
    """Install hand-written rules through ``cm.install`` (surveyed)."""
    constraint = cm.declare(
        CopyConstraint("salary1", "salary2", params=("n",))
    )
    spec = StrategySpec(
        name="hand-built",
        kind="propagation",
        description="rules written for this test",
        rules=tuple(rules),
        private_families=tuple(private),
    )
    return cm.install(constraint, Suggestion(spec, tuple(guarantees), "test"))


def fired_by_rule(cm) -> dict[str, int]:
    (entry,) = cm.run_report().constraints
    return entry["rules_fired"]


class TestInterfaceCompliance:
    def test_catalog_configuration_is_clean(self):
        cm = salary_cm("propagation")
        report = lint_manager(cm)
        cm.stop()
        assert report.ok and not report.diagnostics

    def test_write_request_without_write_interface_cm101(self):
        assert_survey_rejects(
            bare_two_site(offer_write=False),
            "sf",
            "N(salary1(n), b) -> [1] WR(salary2(n), b)",
            "write interface for 'salary2'",
        )

    def test_read_request_without_read_interface_cm102(self):
        assert_survey_rejects(
            bare_two_site(offer_read=False),
            "ny",
            "P(60) -> [1] RR(salary1(n))",
            "read interface for 'salary1'",
            rhs_site="sf",
        )

    def test_notify_trigger_without_notify_interface_cm103(self):
        assert_survey_rejects(
            bare_two_site(offer_notify=False),
            "sf",
            "N(salary1(n), b) -> [1] WR(salary2(n), b)",
            "notify interface for 'salary1'",
        )

    def test_unknown_family_cm104(self):
        assert_survey_rejects(
            bare_two_site(),
            "sf",
            "N(salary1(n), b) -> [1] WR(ghost(n), b)",
            "no source is registered",
        )

    def test_direct_write_on_database_family_cm105(self):
        assert_survey_rejects(
            bare_two_site(),
            "sf",
            "N(salary1(n), b) -> [1] W(salary2(n), b)",
            "database family",
            rhs_site="ny",
        )


class TestVariableSafety:
    def test_unbound_condition_variable_cm201(self):
        cm = bare_two_site()
        cm.shell("sf").install(
            rule(
                "rule guarded: N(salary1(n), b) & limit > b "
                "-> [1] WR(salary2(n), b)"
            ),
            rhs_site="ny",
        )
        report = lint_manager(cm)
        cm.stop()
        assert "CM201" in codes_of(report)

    def test_bound_variables_pass(self):
        cm = bare_two_site()
        cm.shell("sf").install(
            rule(
                "rule guarded: N(salary1(n), b) & b > 0 "
                "-> [1] WR(salary2(n), b)"
            ),
            rhs_site="ny",
        )
        report = lint_manager(cm)
        cm.stop()
        assert "CM201" not in codes_of(report)

    def test_unbound_variable_is_reported_only_by_lint_cm201(self):
        # The condition raises BindingError on every event, which dispatch
        # reads as "not applicable": the rule compiles, never fires, and
        # the run says nothing.
        cm = bare_two_site()
        install_hand_built(
            cm,
            rule(
                "rule guarded: N(salary1(n), b) & limit > b "
                "-> [1] WR(salary2(n), b)"
            ),
        )
        cm.spontaneous_write("salary1", ("e1",), 5.0)
        cm.run(until=seconds(30))
        assert fired_by_rule(cm) == {"guarded": 0}
        report = verify(cm)
        cm.stop()
        only_lint_reports(report, "CM201")

    def test_uncompilable_rule_is_rejected_at_install_cm202(self):
        # The compiler has no plan for an RHS that emits a notification, so
        # no shell can run the rule: both wiring paths refuse it with a
        # CompileError, a SpecError, and the shell is left as it was.
        cm = bare_two_site()
        sf = cm.shell("sf")
        before = (len(sf._index), len(sf._timers), dict(sf._programs))
        echo = rule("rule echo: N(salary1(n), b) -> [1] N(salary2(n), b)")
        periodic_echo = rule("rule tock: P(60) -> [1] N(salary2('e1'), 0)")
        for rejected in (echo, periodic_echo):
            with pytest.raises(CompileError, match="N emission"):
                sf.install(rejected)
        with pytest.raises(SpecError, match="N emission"):
            install_hand_built(cm, echo)
        assert (len(sf._index), len(sf._timers), sf._programs) == before
        report = lint_manager(cm)
        cm.stop()
        assert not report.diagnostics


class TestCycles:
    def test_unguarded_private_write_cycle_cm301(self):
        cm = bare_two_site()
        sf = cm.shell("sf")
        cm.locations.register("PingV", "sf")
        cm.locations.register("PongV", "sf")
        sf.install(rule("rule ping: W(PingV, b) -> [1] W(PongV, b)"))
        sf.install(rule("rule pong: W(PongV, b) -> [1] W(PingV, b)"))
        report = lint_manager(cm)
        cm.stop()
        assert "CM301" in codes_of(report)
        assert not report.ok

    def test_cross_site_cycle_never_quiesces_cm301(self):
        # Within one shell the chain-depth limit raises SpecError; across
        # sites every hop is a fresh message, so one timer tick keeps the
        # pair firing until the horizon and only lint reports it.
        cm = bare_two_site()
        cm.locations.register("PingV", "sf")
        cm.locations.register("PongV", "ny")
        cm.install_rule("sf", rule("rule kick: P(3600) -> [1] W(PingV, 0)"), phase=1)
        cm.install_rule("sf", rule("rule ping: W(PingV, b) -> [1] W(PongV, b)"))
        cm.install_rule("ny", rule("rule pong: W(PongV, b) -> [1] W(PingV, b)"))
        cm.run(until=seconds(2))
        fired = cm.stats()["total"]["rules_fired"]
        cm.run(until=seconds(4))
        assert cm.stats()["total"]["rules_fired"] > fired > 100
        report = verify(cm)
        cm.stop()
        only_lint_reports(report, "CM301")

    def test_guarded_cycle_is_not_flagged_cm303(self):
        cm = bare_two_site()
        sf = cm.shell("sf")
        cm.locations.register("PingV", "sf")
        cm.locations.register("PongV", "sf")
        sf.install(
            rule("rule ping: W(PingV, b) & b > 0 -> [1] W(PongV, b)")
        )
        sf.install(rule("rule pong: W(PongV, b) -> [1] W(PingV, b)"))
        report = lint_manager(cm)
        cm.stop()
        assert not report.diagnostics

    def test_echo_closed_cycle_is_not_flagged_cm302(self):
        # salary2 offers write AND notify: a rule triggering on N(salary2)
        # that writes salary2 back would loop only if the translator
        # echoed its own write as a notification, which it does not.
        cm = bare_two_site()
        rid_b = cm.shells["ny"].translators["salary2"].rid
        rid_b.offer("salary2", InterfaceKind.NOTIFY, bound_seconds=2.0)
        install_hand_built(
            cm, rule("rule echoer: N(salary2(n), b) -> [1] WR(salary2(n), b)")
        )
        assert not lint_manager(cm).diagnostics
        cm.spontaneous_write("salary2", ("e1",), 5.0)
        cm.run(until=seconds(60))
        assert fired_by_rule(cm) == {"echoer": 1}
        cm.stop()

    def test_acyclic_configuration_passes(self):
        cm = salary_cm("propagation")
        report = lint_manager(cm)
        cm.stop()
        assert not any(code.startswith("CM3") for code in codes_of(report))


class TestDeadAndShadowedRules:
    def test_unreachable_rule_cm401(self):
        # Nothing ever writes the private family 'Never'; the run report's
        # per-rule firing count is what shows it.
        cm = bare_two_site()
        install_hand_built(
            cm,
            rule("rule fwd: N(salary1(n), b) -> [1] WR(salary2(n), b)"),
            rule("rule orphan: W(Never, b) -> [1] W(NeverOut, b)"),
            private=(("Never", "sf"), ("NeverOut", "sf")),
        )
        cm.spontaneous_write("salary1", ("e1",), 5.0)
        cm.run(until=seconds(60))
        assert fired_by_rule(cm) == {"fwd": 1, "orphan": 0}
        cm.stop()

    def test_shadowed_rule_cm402(self):
        # Identical right-hand sides under overlapping LHSs: both rules
        # fire on the shared trigger, and the firing counts show it.
        cm = bare_two_site()
        install_hand_built(
            cm,
            rule("rule specific: N(salary1(n), 100) -> [1] WR(salary2(n), 100)"),
            rule("rule general: N(salary1(n), b) -> [1] WR(salary2(n), 100)"),
        )
        cm.spontaneous_write("salary1", ("e1",), 100)
        cm.run(until=seconds(60))
        assert fired_by_rule(cm) == {"specific": 1, "general": 1}
        cm.stop()

    def test_catalog_strategies_have_no_dead_rules(self):
        from repro.experiments.common import build_salary_scenario
        from repro.workloads import PersonnelWorkload

        for kind in ("propagation", "cached-propagation", "polling"):
            salary = build_salary_scenario(strategy_kind=kind, seed=7)
            PersonnelWorkload(
                salary.cm,
                employee_count=3,
                rate=1.0,
                duration=seconds(60.0),
            )
            salary.cm.run(until=seconds(180.0))
            fired = fired_by_rule(salary.cm)
            salary.cm.stop()
            assert fired and all(fired.values()), (kind, fired)


class TestWriteConflicts:
    def test_unordered_cross_site_writers_cm501(self):
        cm = bare_two_site()
        cm.locations.register("Shared", "ny")
        cm.shell("sf").install(
            rule("rule from_sf: N(salary1(n), b) -> [1] W(Shared, b)"),
            rhs_site="ny",
        )
        cm.shell("ny").install(
            rule("rule from_ny: P(60) -> [1] W(Shared, 0)"),
            rhs_site="ny",
        )
        report = lint_manager(cm)
        cm.stop()
        assert "CM501" in codes_of(report)

    def test_same_site_writers_are_ordered(self):
        cm = bare_two_site()
        cm.locations.register("Shared", "ny")
        sf = cm.shell("sf")
        sf.install(
            rule("rule one: N(salary1(n), b) -> [1] W(Shared, b)"),
            rhs_site="ny",
        )
        sf.install(
            rule("rule two: P(60) -> [1] W(Shared, 0)"),
            rhs_site="ny",
        )
        report = lint_manager(cm)
        cm.stop()
        assert "CM501" not in codes_of(report)

    def test_cross_site_race_is_reported_only_by_lint_cm501(self):
        # Which writer lands last depends on message timing; a run that
        # happens to order them the same way every time looks clean.
        cm = bare_two_site()
        install_hand_built(
            cm,
            rule("rule from_sf: N(salary1(n), b) -> [1] W(Shared, b)"),
            rule("rule from_ny: P(60) -> [1] W(Shared, 0)"),
            private=(("Shared", "ny"),),
        )
        cm.spontaneous_write("salary1", ("e1",), 5.0)
        cm.run(until=seconds(120))
        assert all(fired_by_rule(cm).values())
        report = verify(cm)
        cm.stop()
        only_lint_reports(report, "CM501")
