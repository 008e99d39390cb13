"""E1 — Section 4.2: the notify→write propagation strategy.

Paper claim: "Given the interfaces and the strategy above, we can prove that
guarantees (1), (2) and (3) of Section 3.3.1 are all valid.  We can also
prove that the associated metric guarantee (4) is valid for an appropriate
κ."

The experiment runs the salary scenario under the propagation strategy for a
sweep of update rates, checks all four guarantees against the recorded
trace, validates the trace against the Appendix A properties, and reports
the measured worst-case propagation lag against the computed κ.
"""

from __future__ import annotations

from repro.core.guarantees import (
    FollowsGuarantee,
    LeadsGuarantee,
    StrictlyFollowsGuarantee,
)
from repro.core.timebase import seconds, to_seconds
from repro.core.trace import validate_trace
from repro.experiments.common import (
    ExperimentResult,
    RunConfig,
    attach_observability,
    build_salary_scenario,
    resolve_config,
)
from repro.workloads import PersonnelWorkload

CLAIM = (
    "under notify->write propagation, guarantees (1) follows, (2) leads, "
    "(3) strictly follows, and (4) metric follows are all valid"
)


def run(
    config: RunConfig | None = None,
    *,
    rates: tuple[float, ...] = (0.2, 1.0, 5.0),
    employee_count: int = 20,
    duration_seconds: float = 300.0,
    seed: int = 0,
) -> ExperimentResult:
    """Sweep the spontaneous-update rate; all guarantees must hold."""
    config = resolve_config(config)
    seed = config.resolve_seed(seed)
    employee_count = config.scaled(employee_count)
    result = ExperimentResult(
        experiment="E1 propagation (Section 4.2)",
        claim=CLAIM,
        headers=[
            "rate/s",
            "updates",
            "g1 follows",
            "g2 leads",
            "g3 strict",
            "g4 metric",
            "kappa_s",
            "max_lag_s",
            "trace_ok",
        ],
    )
    for rate in rates:
        salary = build_salary_scenario(
            strategy_kind="propagation", seed=seed,
            runtime=config.runtime_spec(),
        )
        workload = PersonnelWorkload(
            salary.cm,
            employee_count=employee_count,
            rate=rate,
            duration=seconds(duration_seconds),
        )
        salary.cm.run(until=seconds(duration_seconds + 60))
        reports = salary.cm.check_guarantees()
        follows = reports[salary.issued(FollowsGuarantee, metric=False).name]
        leads = reports[salary.issued(LeadsGuarantee).name]
        strict = reports[salary.issued(StrictlyFollowsGuarantee).name]
        metric_guarantee = salary.issued(FollowsGuarantee, metric=True)
        metric = reports[metric_guarantee.name]
        kappa = to_seconds(metric_guarantee.within)
        violations = validate_trace(
            salary.scenario.trace, list(salary.installed.strategy.rules)
        )
        row = [
            rate,
            workload.stream.stats.updates,
            follows.valid,
            leads.valid,
            strict.valid,
            metric.valid,
            kappa,
            metric.stats.get("max_lag_seconds", 0.0),
            not violations,
        ]
        result.rows.append(row)
        if not all(
            (follows.valid, leads.valid, strict.valid, metric.valid)
        ) or violations:
            result.claim_holds = False
    result.notes.append(
        "kappa computed by the catalog from the offered interface bounds; "
        "max_lag is the measured worst-case value lag, which must stay "
        "below kappa"
    )
    attach_observability(result, salary.cm)
    return result


def main() -> None:
    """Print the experiment's result table."""
    print(run().render())


if __name__ == "__main__":
    main()


def build_for_lint():
    """CM-Lint hook: the wired configuration this experiment runs."""
    return build_salary_scenario(strategy_kind="propagation", seed=0).cm
