"""Tests for the guarantee-feasibility check (CM6xx).

The check is conservative: a κ it rejects (CM601) is unachievable even on
a perfect run, because the static bound sums only promised interface
bounds, declared rule delays, and worst-case channel latencies.  A run
checks κ only against the latencies it drew, so CM601 and CM603 each get a
run in which they are the only report of the mistake.
"""

from analysis_helpers import bare_two_site, codes_of, salary_cm

from repro import parse_rules
from repro.analysis import LintReport
from repro.analysis.checks import check_feasibility
from repro.analysis.lint import manager_context
from repro.cm.verify import verify
from repro.constraints.copy import CopyConstraint
from repro.core.catalog import Suggestion
from repro.core.guarantees import follows, leads
from repro.core.strategies import StrategySpec
from repro.core.timebase import seconds


def run_feasibility(cm, guarantees=None):
    """Run only the feasibility check, optionally over substituted
    guarantees."""
    context = manager_context(cm)
    if guarantees is not None:
        context.guarantees = list(guarantees)
    report = LintReport()
    check_feasibility(context, report)
    return report.finalize()


def install_with_guarantee(cm, rules, guarantee):
    """``cm.install`` of ``rules`` standing behind one guarantee."""
    constraint = cm.declare(
        CopyConstraint("salary1", "salary2", params=("n",))
    )
    spec = StrategySpec(
        name="hand-built",
        kind="propagation",
        description="rules written for this test",
        rules=tuple(rules),
    )
    cm.install(constraint, Suggestion(spec, (guarantee,), "test"))


def write_and_verify(cm, values, until_seconds: float = 120.0):
    """Write ``salary1`` once the run is under way (a value held from time
    0 is a seeded load, exempt from ``leads``), then run and verify."""
    cm.run(until=seconds(1))
    for i, value in enumerate(values):
        cm.spontaneous_write("salary1", (f"e{i}",), value)
    cm.run(until=seconds(until_seconds))
    report = verify(cm)
    cm.stop()
    return report


class TestFeasibility:
    def test_catalog_kappa_is_feasible(self):
        cm = salary_cm("propagation")
        report = run_feasibility(cm)
        cm.stop()
        assert "CM601" not in codes_of(report)

    def test_polling_kappa_is_feasible(self):
        # Regression: the catalog's polling κ must account for BOTH rule
        # firings in the chain (P -> RR, then R -> WR); before the fix its
        # formula charged the delay once and linted 0.05s infeasible.
        cm = salary_cm("polling")
        report = run_feasibility(cm)
        cm.stop()
        assert "CM601" not in codes_of(report)

    def test_too_small_kappa_cm601(self):
        cm = salary_cm("propagation")
        report = run_feasibility(
            cm, [follows("salary1", "salary2", within_seconds=0.5)]
        )
        cm.stop()
        assert "CM601" in codes_of(report)
        assert not report.ok

    def test_generous_kappa_passes(self):
        cm = salary_cm("propagation")
        report = run_feasibility(
            cm, [follows("salary1", "salary2", within_seconds=3600.0)]
        )
        cm.stop()
        assert "CM601" not in codes_of(report)

    def test_no_delivery_path_cm602(self):
        # No rule carries salary1 changes anywhere: lint says nothing, and
        # the guarantee check fails at the first salary1 change.
        cm = bare_two_site()
        install_with_guarantee(
            cm,
            parse_rules("rule drop: N(salary1(n), b) -> [1] FALSE"),
            leads("salary1", "salary2", within_seconds=60.0),
        )
        assert not codes_of(run_feasibility(cm))
        cm.spontaneous_write("salary2", ("e0",), 1.0)  # the pair exists
        report = write_and_verify(cm, [5.0])
        assert not report.diagnostics
        assert not report.guarantees_ok

    def test_guarded_only_paths_cm603(self):
        cm = salary_cm("cached-propagation")
        report = run_feasibility(cm)
        cm.stop()
        assert "CM603" in codes_of(report)

    def test_unqualified_guarantees_are_ignored(self):
        cm = salary_cm("propagation")
        report = run_feasibility(
            cm, [follows("salary1", "salary2")]  # no κ: nothing to check
        )
        cm.stop()
        assert not codes_of(report)

    def test_unbounded_channel_latency_cm604(self):
        from repro.experiments.common import build_salary_scenario
        from repro.sim.network import LatencyModel
        from repro.core.timebase import seconds

        class ExponentialTail(LatencyModel):
            """10 ms plus an exponential tail: no worst case."""

            def sample(self, rng):
                return seconds(0.01) + round(rng.expovariate(1 / seconds(0.05)))

        cm = build_salary_scenario(
            strategy_kind="propagation", seed=0, latency=ExponentialTail()
        ).cm
        report = run_feasibility(cm)
        cm.stop()
        # Unprovable is not the same as infeasible: no CM601, and no
        # finding at all; the guarantee check judges the run.
        assert not codes_of(report)

    def test_small_kappa_is_reported_only_by_lint_cm601(self):
        # κ = 1 s is below the 2 s notify + 1 s rule + 2 s write worst
        # case, but the run's latencies all fall inside it.
        cm = bare_two_site()
        install_with_guarantee(
            cm,
            parse_rules("rule fwd: N(salary1(n), b) -> [1] WR(salary2(n), b)"),
            follows("salary1", "salary2", within_seconds=1.0),
        )
        report = write_and_verify(cm, [100.0 + i for i in range(5)])
        assert report.guarantees_ok and report.trace_ok
        assert not report.silent_gaps
        assert [d.code for d in report.diagnostics] == ["CM601"]

    def test_guarded_delivery_is_reported_only_by_lint_cm603(self):
        # Changes of 100 or less never propagate; a run whose changes are
        # all larger meets the guarantee, and only lint says it depends
        # on the guard.
        cm = bare_two_site()
        install_with_guarantee(
            cm,
            parse_rules(
                "rule big: N(salary1(n), b) & b > 100 -> [1] WR(salary2(n), b)"
            ),
            follows("salary1", "salary2", within_seconds=60.0),
        )
        report = write_and_verify(cm, [200.0 + i for i in range(5)])
        assert report.guarantees_ok and report.trace_ok
        assert not report.silent_gaps
        assert [d.code for d in report.diagnostics] == ["CM603"]
