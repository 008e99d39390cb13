"""E8 — Section 5: failure handling.

Paper claims:

1. **Metric failure** (delay bounds violated, work still done): "the metric
   guarantees for that constraint are no longer valid.  However, the
   non-metric guarantees continue to be valid, which may allow many
   applications to continue to function."
2. **Logical failure** (interface statements broken): "both metric and
   non-metric guarantees involving the failed site are no longer valid until
   the system is reset."  Translators detect these from the source's error
   codes and shells propagate the invalidation.
3. **Silent failures**: a notify feed that drops messages with no observable
   error is *undetectable*; "if it is not possible to ensure that the
   probability of such undetectable failures is acceptably low, then a
   Notify Interface should not be used for this database."

The experiment runs the salary scenario four times — healthy, with an
injected metric overload, with a database crash, and with silent notify
loss — and reports, for each: what the status board believed, what the trace
checker actually found, and whether the failure was detected at all.  The
silent case is the one where belief and truth diverge.
"""

from __future__ import annotations

from repro.core.timebase import seconds
from repro.experiments.common import (
    ExperimentResult,
    RunConfig,
    attach_observability,
    build_salary_scenario,
    resolve_config,
)
from repro.sim.failures import FailureKind, FailurePlan, FailureWindow
from repro.workloads import UpdateStream
from repro.workloads.generators import random_walk

CLAIM = (
    "metric failures invalidate only metric guarantees; logical failures "
    "invalidate all guarantees until reset; silent notify loss is "
    "undetectable and breaks guarantees the board still believes"
)


def _run_case(
    case: str, seed: int, duration: float = 300.0, runtime="sim"
) -> tuple:
    failure_plan = FailurePlan()
    if case == "metric":
        failure_plan.add(
            FailureWindow(
                site="ny",
                kind=FailureKind.METRIC,
                start=seconds(100),
                end=seconds(160),
                slowdown=500.0,
            )
        )
    if case == "silent":
        failure_plan.add(
            FailureWindow(
                site="sf",
                kind=FailureKind.SILENT_NOTIFY_LOSS,
                start=seconds(100),
                end=seconds(160),
                drop_probability=1.0,
            )
        )
    salary = build_salary_scenario(
        strategy_kind="propagation",
        seed=seed,
        failure_plan=failure_plan,
        runtime=runtime,
    )
    if case == "logical":
        # The HQ database crashes (and later recovers); the CM detects this
        # from the UNAVAILABLE errors its write requests hit.
        salary.cm.scenario.sim.at(
            seconds(100), lambda: salary.hq_db.set_available(False)
        )
        salary.cm.scenario.sim.at(
            seconds(160), lambda: salary.hq_db.set_available(True)
        )
    UpdateStream(
        salary.cm,
        "salary1",
        [f"e{i}" for i in range(1, 6)],
        rate=0.5,
        duration=seconds(duration),
        value_model=random_walk(step=100.0, start=1000.0),
    )
    # Generous drain time: a metric failure *delays* work (the backlog the
    # 500x slowdown builds up is eventually served), and the Section 5 claim
    # is precisely that the delayed-but-performed writes still satisfy the
    # non-metric guarantees.
    salary.cm.run(until=seconds(duration + 900))

    board = salary.cm.board
    horizon = salary.scenario.trace.horizon
    board_metric_ok = True
    board_nonmetric_ok = True
    for guarantee in board.guarantees():
        ever_invalid = bool(board.invalid_intervals(guarantee, horizon))
        if guarantee.metric:
            board_metric_ok = board_metric_ok and not ever_invalid
        else:
            board_nonmetric_ok = board_nonmetric_ok and not ever_invalid

    reports = salary.cm.check_guarantees()
    issued = salary.installed.guarantees
    empirical_metric_ok = all(reports[g.name].valid for g in issued if g.metric)
    empirical_nonmetric_ok = all(reports[g.name].valid for g in issued if not g.metric)
    outcome = {
        "case": case,
        "detected": len(board.notices) > 0,
        "board_metric_ok": board_metric_ok,
        "board_nonmetric_ok": board_nonmetric_ok,
        "empirical_metric_ok": empirical_metric_ok,
        "empirical_nonmetric_ok": empirical_nonmetric_ok,
    }
    return outcome, salary.cm


def run(
    config: RunConfig | None = None, *, seed: int = 7
) -> ExperimentResult:
    """Run the healthy/metric/logical/silent cases and assemble the matrix."""
    config = resolve_config(config)
    seed = config.resolve_seed(seed)
    result = ExperimentResult(
        experiment="E8 failure handling (Section 5)",
        claim=CLAIM,
        headers=[
            "case",
            "detected",
            "board metric ok",
            "board non-metric ok",
            "true metric ok",
            "true non-metric ok",
        ],
    )
    outcomes = {}
    for case in ("healthy", "metric", "logical", "silent"):
        outcome, case_cm = _run_case(case, seed, runtime=config.runtime_spec())
        outcomes[case] = outcome
        result.rows.append(
            [
                outcome["case"],
                outcome["detected"],
                outcome["board_metric_ok"],
                outcome["board_nonmetric_ok"],
                outcome["empirical_metric_ok"],
                outcome["empirical_nonmetric_ok"],
            ]
        )

    healthy = outcomes["healthy"]
    if not (
        healthy["board_metric_ok"]
        and healthy["empirical_metric_ok"]
        and healthy["empirical_nonmetric_ok"]
        and not healthy["detected"]
    ):
        result.claim_holds = False
        result.notes.append("the healthy baseline was not clean")

    metric = outcomes["metric"]
    if not (
        metric["detected"]
        and not metric["board_metric_ok"]
        and metric["board_nonmetric_ok"]
        and not metric["empirical_metric_ok"]
        and metric["empirical_nonmetric_ok"]
    ):
        result.claim_holds = False
        result.notes.append(
            "metric failure did not behave per Section 5 "
            f"(outcome: {metric})"
        )

    logical = outcomes["logical"]
    if not (
        logical["detected"]
        and not logical["board_metric_ok"]
        and not logical["board_nonmetric_ok"]
        and not logical["empirical_nonmetric_ok"]
    ):
        result.claim_holds = False
        result.notes.append(
            "logical failure did not behave per Section 5 "
            f"(outcome: {logical})"
        )

    silent = outcomes["silent"]
    if not (
        not silent["detected"]
        and silent["board_nonmetric_ok"]
        and not silent["empirical_nonmetric_ok"]
    ):
        result.claim_holds = False
        result.notes.append(
            "silent notify loss should be undetected yet harmful "
            f"(outcome: {silent})"
        )
    result.notes.append(
        "the silent row is the paper's warning: the board still believes "
        "the guarantees while the trace shows missed values"
    )
    attach_observability(result, case_cm)
    return result


def main() -> None:
    """Print the experiment's result table."""
    print(run().render())


if __name__ == "__main__":
    main()


def build_for_lint():
    """CM-Lint hook: the baseline wiring (failure plans are runtime-only,
    so the no-failure configuration is the statically relevant one)."""
    return build_salary_scenario(strategy_kind="propagation", seed=7).cm
