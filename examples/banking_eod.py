"""The old-fashioned bank of Section 6.4: periodic guarantees.

All branch transactions happen between 9 a.m. and 5 p.m.; the branch offers
an interface promising *no updates between 5 p.m. and 8 a.m.*  One batch
propagation at 5 p.m. (taking under 15 minutes) then buys a **periodic
guarantee**: branch and head-office balances are equal every day from
5:15 p.m. until 8 a.m. — so the head office's nightly analysis can run with
full confidence, without the branch ever supporting distributed
transactions.

Run:  python examples/banking_eod.py
"""

from repro import CMRID, ConstraintManager, CopyConstraint, InterfaceKind, Scenario
from repro.apps import AnalystApp
from repro.core.timebase import DAY, clock_time, format_ticks
from repro.ris.relational import RelationalDatabase
from repro.workloads import BankingWorkload

SIMULATED_DAYS = 3


def build():
    """Wire the two ledgers and install the end-of-day batch strategy."""
    scenario = Scenario(seed=31)
    cm = ConstraintManager(scenario)

    branch_db = RelationalDatabase("branch-ledger")
    branch_db.execute(
        "CREATE TABLE accounts (acct TEXT PRIMARY KEY, balance REAL)"
    )
    rid_branch = (
        CMRID("relational", "branch-ledger")
        .bind(
            "balance1",
            params=("n",),
            table="accounts",
            key_column="acct",
            value_column="balance",
        )
        .offer("balance1", InterfaceKind.READ, bound_seconds=2.0)
        .offer(
            "balance1",
            InterfaceKind.UPDATE_WINDOW,
            window=(clock_time(17), clock_time(8)),
        )
    )
    cm.add_site("branch")
    cm.add_source("branch", branch_db, rid_branch)

    hq_db = RelationalDatabase("ho-ledger")
    hq_db.execute(
        "CREATE TABLE accounts (acct TEXT PRIMARY KEY, balance REAL)"
    )
    rid_hq = (
        CMRID("relational", "ho-ledger")
        .bind(
            "balance2",
            params=("n",),
            table="accounts",
            key_column="acct",
            value_column="balance",
        )
        .offer("balance2", InterfaceKind.WRITE, bound_seconds=2.0)
        .offer("balance2", InterfaceKind.NO_SPONTANEOUS_WRITE)
    )
    cm.add_site("head-office")
    cm.add_source("head-office", hq_db, rid_hq)

    constraint = cm.declare(
        CopyConstraint("balance1", "balance2", params=("n",))
    )
    suggestions = cm.suggest(constraint, eod_fire_at=clock_time(17))
    eod = next(s for s in suggestions if s.strategy.kind == "eod-batch")
    cm.install(constraint, eod)
    return cm, eod


def build_for_lint():
    """CM-Lint hook: the wired bank, before any transactions."""
    return build()[0]


def main() -> None:
    cm, eod = build()
    print("installing:", eod.strategy.name)
    for guarantee in eod.guarantees:
        print("  guarantees:", guarantee)

    workload = BankingWorkload(
        cm, account_count=8, days=SIMULATED_DAYS, rate=0.02
    )
    analyst = AnalystApp(
        cm, "balance1", "balance2", run_at=clock_time(22), days=SIMULATED_DAYS
    )
    cm.run(until=SIMULATED_DAYS * DAY)

    print(f"\n{workload.updates_scheduled} business-hours transactions")
    print("\nnightly analysis at 22:00 (inside the guaranteed window):")
    for report in analyst.reports():
        status = "consistent" if report.consistent else "INCONSISTENT"
        print(
            f"  {format_ticks(report.run_at)}: head-office total "
            f"{report.copy_total:,.2f}, branch truth "
            f"{report.branch_total:,.2f} -> {status}"
        )

    print("\nperiodic guarantee over the whole run:")
    for report in cm.check_guarantees().values():
        print(f"  {report}")


if __name__ == "__main__":
    main()
