"""Tests for the unsurveyed raw install, eager manager validation, and
the lint wiring in ``verify()`` / run reports."""

import pytest

from analysis_helpers import bare_two_site, salary_cm

from repro import parse_rules
from repro.core.errors import ConfigurationError, UnsupportedOperationError
from repro.cm.verify import verify
from repro.constraints.copy import CopyConstraint
from repro.core.catalog import Suggestion
from repro.core.strategies import StrategySpec
from repro.core.timebase import seconds


def rule(text: str):
    (parsed,) = parse_rules(text)
    return parsed


class TestStrictInstall:
    """Raw ``CMShell.install`` is unsurveyed; a misconfigured rule fails
    loudly at its translator on first use."""

    def test_non_strict_install_of_same_rule_succeeds(self):
        cm = bare_two_site()
        shell = cm.shell("sf")
        before = len(shell._index)
        shell.install(
            rule("rule back: N(salary1(n), b) -> [1] WR(salary1(n), b)")
        )
        assert len(shell._index) == before + 1
        shell.translator_for("salary1").setup_notify("salary1")
        cm.spontaneous_write("salary1", ("e1",), 5.0)
        with pytest.raises(UnsupportedOperationError, match="no write"):
            cm.run(until=seconds(30))
        cm.stop()


class TestEagerValidation:
    def test_strategy_referencing_unknown_family_raises(self):
        # Regression: before the eager check, a strategy naming a family
        # with no registered source installed fine and only failed at the
        # first event — now it is a ConfigurationError at install time.
        cm = bare_two_site()
        constraint = cm.declare(
            CopyConstraint("salary1", "salary2", params=("n",))
        )
        spec = StrategySpec(
            name="ghost-writer",
            kind="propagation",
            description="writes a family nobody registered",
            rules=(
                rule("rule bad: N(salary1(n), b) -> [1] WR(ghost(n), b)"),
            ),
        )
        with pytest.raises(ConfigurationError) as excinfo:
            cm.install(constraint, Suggestion(spec, (), "test"))
        cm.stop()
        message = str(excinfo.value)
        assert "ghost" in message
        assert "add_source" in message  # fix hint names the remedy

    def test_catalog_strategies_still_install(self):
        cm = salary_cm("propagation")
        cm.stop()  # construction already installed the strategy


def cross_site_cycle(cm):
    """A ping/pong pair across sf and ny: an unguarded cycle (CM301)."""
    cm.locations.register("PingV", "sf")
    cm.locations.register("PongV", "ny")
    cm.shell("sf").install(
        rule("rule ping: W(PingV, b) -> [1] W(PongV, b)"), rhs_site="ny"
    )
    cm.shell("ny").install(
        rule("rule pong: W(PongV, b) -> [1] W(PingV, b)"), rhs_site="sf"
    )


class TestVerifyLintIntegration:
    def test_bad_rule_fails_verification(self):
        cm = salary_cm("propagation")
        cross_site_cycle(cm)
        report = verify(cm)
        cm.stop()
        assert not report.lint_ok
        assert not report.ok
        assert any(d.code == "CM301" for d in report.diagnostics)

    def test_run_report_carries_lint_findings(self):
        cm = salary_cm("propagation")
        cross_site_cycle(cm)
        report = cm.run_report()
        cm.stop()
        codes = {finding["code"] for finding in report.lint}
        assert "CM301" in codes
        assert "lint" in report.to_dict()
