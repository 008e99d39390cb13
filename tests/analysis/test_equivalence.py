"""Seeded lint/runtime equivalence tests.

Two directions: every lint-clean catalog configuration must also produce a
valid trace when actually run (lint raises no false alarms for the
configurations we ship), and known-bad fixtures must be rejected before the
run — by the install-time interface survey or by a lint code.
"""

import pytest

from analysis_helpers import bare_two_site, codes_of

from repro import parse_rules
from repro.analysis import lint_manager
from repro.core.timebase import seconds
from repro.core.trace import validate_trace
from repro.experiments.common import build_salary_scenario
from repro.workloads import PersonnelWorkload


def rule(text: str):
    (parsed,) = parse_rules(text)
    return parsed


class TestCleanConfigsRunClean:
    @pytest.mark.parametrize(
        "kind", ["propagation", "cached-propagation", "polling"]
    )
    def test_lint_clean_configuration_produces_valid_trace(self, kind):
        salary = build_salary_scenario(strategy_kind=kind, seed=7)
        report = lint_manager(salary.cm)
        assert report.ok, report.render()
        assert not any(
            d.severity.name == "ERROR" for d in report.diagnostics
        )
        PersonnelWorkload(
            salary.cm,
            employee_count=5,
            rate=1.0,
            duration=seconds(60.0),
        )
        salary.cm.run(until=seconds(180.0))
        violations = validate_trace(
            salary.scenario.trace,
            list(salary.installed.strategy.rules),
        )
        salary.cm.stop()
        assert not violations


class TestKnownBadFixtures:
    def test_ungranted_write_flagged_statically(self):
        # The interface survey runs before the first rule is indexed, so a
        # strategy that needs an unoffered write interface never starts.
        from repro.constraints.copy import CopyConstraint
        from repro.core.catalog import Suggestion
        from repro.core.errors import ConfigurationError
        from repro.core.strategies import StrategySpec

        cm = bare_two_site(offer_write=False)
        constraint = cm.declare(
            CopyConstraint("salary1", "salary2", params=("n",))
        )
        spec = StrategySpec(
            name="ungranted",
            kind="propagation",
            description="requests writes salary2 does not offer",
            rules=(
                rule("rule mark: P(60) -> [1] W(Seen, 0)"),
                rule("rule fwd: N(salary1(n), b) -> [1] WR(salary2(n), b)"),
            ),
            private_families=(("Seen", "sf"),),
        )
        with pytest.raises(ConfigurationError, match="write interface"):
            cm.install(constraint, Suggestion(spec, (), "test"))
        cm.stop()
        assert not cm.installed
        assert all(len(shell._index) == 0 for shell in cm.shells.values())

    def test_infeasible_kappa_flagged_statically(self):
        from repro.analysis.lint import manager_context, run_checks
        from repro.core.guarantees import follows

        salary = build_salary_scenario(strategy_kind="propagation", seed=3)
        context = manager_context(salary.cm)
        # A κ below even the notify bound: no run can meet it.
        context.guarantees = [
            follows("salary1", "salary2", within_seconds=0.25)
        ]
        report = run_checks(context)
        salary.cm.stop()
        assert "CM601" in codes_of(report)
        assert not report.ok
