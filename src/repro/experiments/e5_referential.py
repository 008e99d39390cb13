"""E5 — Section 6.2: weakened referential integrity.

Paper claim: with the strategy "at the end of each working day, the CM
deletes all project records from the projects database that do not have a
corresponding salary record", the weakened guarantee holds: "the referential
integrity constraint may be violated for any one employee ID for a period of
at most 24 hours".

The experiment churns project records (some created orphaned, some orphaned
later by salary-record deletions) across several simulated days with a
nightly cleanup, then measures every violation window.  Shape: violations
*do* occur (the constraint is weakened, not strict) but no window exceeds
the grace period.
"""

from __future__ import annotations

from repro.cm import CMRID, ConstraintManager, Scenario
from repro.constraints import ReferentialConstraint
from repro.core.interfaces import InterfaceKind
from repro.core.timebase import DAY, clock_time, days, seconds
from repro.experiments.common import (
    ExperimentResult,
    RunConfig,
    attach_observability,
    resolve_config,
)
from repro.ris.relational import RelationalDatabase
from repro.runtime.api import RuntimeSpec

CLAIM = (
    "orphaned project records exist transiently but never for longer than "
    "the 24-hour grace window, thanks to the nightly cleanup"
)


def build_referential_cm(
    seed: int, runtime: RuntimeSpec = "sim"
) -> ConstraintManager:
    """Two relational sites with the project->salary referential constraint."""
    scenario = Scenario(seed=seed, runtime=runtime)
    cm = ConstraintManager(scenario)
    cm.add_site("projects-site")
    cm.add_site("payroll-site")

    projects_db = RelationalDatabase("projects")
    projects_db.execute(
        "CREATE TABLE assignments (empid TEXT PRIMARY KEY, project TEXT)"
    )
    rid_projects = (
        CMRID("relational", "projects")
        .bind(
            "project",
            params=("i",),
            table="assignments",
            key_column="empid",
            value_column="project",
        )
        .offer("project", InterfaceKind.READ, bound_seconds=1.0)
        .offer("project", InterfaceKind.WRITE, bound_seconds=1.0)
    )
    cm.add_source("projects-site", projects_db, rid_projects)

    payroll_db = RelationalDatabase("payroll")
    payroll_db.execute(
        "CREATE TABLE salaries (empid TEXT PRIMARY KEY, amount REAL)"
    )
    rid_payroll = CMRID("relational", "payroll").bind(
        "salaryrec",
        params=("i",),
        table="salaries",
        key_column="empid",
        value_column="amount",
    ).offer("salaryrec", InterfaceKind.READ, bound_seconds=1.0)
    cm.add_source("payroll-site", payroll_db, rid_payroll)

    constraint = cm.declare(
        ReferentialConstraint("project", "salaryrec", grace=days(1))
    )
    suggestions = cm.suggest(constraint, cleanup_fire_at=clock_time(23, 0))
    cm.install(constraint, suggestions[0])
    return cm


def run(
    config: RunConfig | None = None,
    *,
    simulated_days: int = 4,
    employees_per_day: int = 12,
    orphan_fraction: float = 0.3,
    seed: int = 4,
) -> ExperimentResult:
    """Churn records for several days; measure every violation window."""
    config = resolve_config(config)
    seed = config.resolve_seed(seed)
    employees_per_day = config.scaled(employees_per_day)
    result = ExperimentResult(
        experiment="E5 referential integrity (Section 6.2)",
        claim=CLAIM,
        headers=[
            "employees",
            "orphans_created",
            "salary_deletions",
            "guarantee",
            "max_window_h",
            "grace_h",
        ],
    )
    cm = build_referential_cm(seed, runtime=config.runtime_spec())
    rng = cm.scenario.rngs.stream("referential-workload")
    orphans_created = 0
    salary_deletions = 0
    counter = 0
    horizon = simulated_days * DAY
    for day in range(simulated_days):
        for __ in range(employees_per_day):
            counter += 1
            empid = f"emp{counter:04d}"
            at = day * DAY + clock_time(9) + round(
                rng.uniform(0, 8 * 3600)
            ) * 1_000_000
            if rng.random() < orphan_fraction:
                # A project record with no salary record: a violation the
                # nightly cleanup must bound.
                orphans_created += 1
                cm.scenario.sim.at(
                    at,
                    lambda e=empid: cm.spontaneous_write(
                        "project", (e,), "skunkworks"
                    ),
                )
            else:
                cm.scenario.sim.at(
                    at,
                    lambda e=empid: cm.spontaneous_write(
                        "salaryrec", (e,), 90_000.0
                    ),
                )
                cm.scenario.sim.at(
                    at + seconds(60),
                    lambda e=empid: cm.spontaneous_write(
                        "project", (e,), "mainline"
                    ),
                )
                if rng.random() < 0.25:
                    # The employee leaves: payroll deletes the salary record
                    # during a later business day, orphaning the project.
                    salary_deletions += 1
                    leave_at = at + days(1) + round(
                        rng.uniform(0, 6 * 3600)
                    ) * 1_000_000
                    if leave_at < horizon:
                        cm.scenario.sim.at(
                            leave_at,
                            lambda e=empid: cm.spontaneous_delete(
                                "salaryrec", (e,)
                            ),
                        )
    cm.run(until=horizon)
    reports = cm.check_guarantees()
    report = next(iter(reports.values()))
    max_window_h = report.stats["max_violation_window_seconds"] / 3600.0
    grace_h = 24.5  # catalog adds a 30-minute cleanup-run margin
    result.rows.append(
        [
            counter,
            orphans_created,
            salary_deletions,
            report.valid,
            max_window_h,
            grace_h,
        ]
    )
    if not report.valid:
        result.claim_holds = False
        result.notes.extend(report.counterexamples[:3])
    if max_window_h == 0.0:
        result.claim_holds = False
        result.notes.append(
            "no violation window ever opened; the weakening is untested"
        )
    attach_observability(result, cm)
    return result


def main() -> None:
    """Print the experiment's result table."""
    print(run().render())


if __name__ == "__main__":
    main()


def build_for_lint():
    """CM-Lint hook: the referential-integrity configuration."""
    return build_referential_cm(seed=4)
