"""Quickstart: the paper's Section 4.2 example, end to end.

A company stores personnel data in a San Francisco branch database (A) and
at New York headquarters (B).  The constraint: for each employee n,
``salary1(n) = salary2(n)``.

The script walks the toolkit workflow:

1. stand up the two (simulated) relational databases;
2. describe each database's offered interfaces in a CM-RID;
3. declare the copy constraint and ask the toolkit for applicable
   strategies + guarantees;
4. install the suggested propagation strategy and run a workload;
5. check every issued guarantee against the recorded execution;
6. re-run after the Section 4.2.3 interface change (notify -> read-only),
   which forces a polling strategy and loses guarantee (2).

Run:  python examples/quickstart.py
"""

from repro import (
    CMRID,
    ConstraintManager,
    CopyConstraint,
    InterfaceKind,
    Scenario,
    seconds,
)
from repro.ris.relational import RelationalDatabase
from repro.workloads import UpdateStream
from repro.workloads.generators import random_walk


def build(offer_notify: bool) -> tuple[ConstraintManager, RelationalDatabase]:
    cm = ConstraintManager(Scenario(seed=2024))

    # --- Site A: the branch database --------------------------------------
    branch = RelationalDatabase("branch")
    branch.execute(
        "CREATE TABLE employees (empid TEXT PRIMARY KEY, salary REAL)"
    )
    rid_a = CMRID("relational", "branch").bind(
        "salary1",
        params=("n",),
        table="employees",
        key_column="empid",
        value_column="salary",
    )
    if offer_notify:
        # The DBA offers: every spontaneous salary update is pushed to the
        # CM within 2 seconds (implemented via triggers, Section 4.2.1).
        rid_a.offer("salary1", InterfaceKind.NOTIFY, bound_seconds=2.0)
    # Reads are always available, answered within a second.
    rid_a.offer("salary1", InterfaceKind.READ, bound_seconds=1.0)

    # --- Site B: the headquarters database --------------------------------
    hq = RelationalDatabase("hq")
    hq.execute(
        "CREATE TABLE employees (empid TEXT PRIMARY KEY, salary REAL)"
    )
    rid_b = (
        CMRID("relational", "hq")
        .bind(
            "salary2",
            params=("n",),
            table="employees",
            key_column="empid",
            value_column="salary",
        )
        .offer("salary2", InterfaceKind.WRITE, bound_seconds=2.0)
        .offer("salary2", InterfaceKind.NO_SPONTANEOUS_WRITE)
    )

    # Each site gets a CM-Shell; each source joins it through its
    # CM-RID-configured translator.
    cm.add_site("san-francisco")
    cm.add_source("san-francisco", branch, rid_a)
    cm.add_site("new-york")
    cm.add_source("new-york", hq, rid_b)
    return cm, hq


def demo(offer_notify: bool) -> None:
    label = "notify interface" if offer_notify else "read interface only"
    print(f"--- salary1 offers a {label} ---")
    cm, hq = build(offer_notify)

    print("offered interfaces:")
    print(cm.interfaces().describe())

    constraint = cm.declare(
        CopyConstraint("salary1", "salary2", params=("n",))
    )
    suggestions = cm.suggest(constraint, polling_period=seconds(10))
    print(f"\nthe toolkit suggests {len(suggestions)} strategies:")
    for suggestion in suggestions:
        print(f"  * {suggestion}")

    chosen = suggestions[0]
    print(f"\ninstalling: {chosen.strategy.name}")
    cm.install(constraint, chosen)

    # Local applications at the branch update salaries, unaware of the CM.
    UpdateStream(
        cm,
        "salary1",
        ["alice", "bob", "carol"],
        rate=0.5,
        duration=seconds(120),
        value_model=random_walk(step=2_000.0, start=100_000.0),
    )
    cm.run(until=seconds(180))

    print("\nheadquarters now sees:")
    for empid, salary in hq.query(
        "SELECT empid, salary FROM employees ORDER BY empid"
    ):
        print(f"  {empid}: {salary:,.2f}")

    print("\nguarantee check against the recorded execution:")
    for report in cm.check_guarantees().values():
        print(f"  {report}")

    totals = cm.stats()["total"]
    print(
        f"\ndispatch: {totals['events_processed']} events, "
        f"{totals['candidates_considered']} candidate rules considered, "
        f"{totals['rules_fired']} fired"
    )
    print()


def main() -> None:
    demo(offer_notify=True)
    # Section 4.2.3: the administrator withdraws the notify interface; the
    # toolkit must fall back to polling, and guarantee (2) disappears from
    # the offered list — exactly the paper's point about weakened
    # consistency being explicit.
    demo(offer_notify=False)


if __name__ == "__main__":
    main()


def build_for_lint():
    """CM-Lint hook: both interface generations, wired and installed."""
    managers = []
    for offer_notify in (True, False):
        cm, __ = build(offer_notify)
        constraint = cm.declare(
            CopyConstraint("salary1", "salary2", params=("n",))
        )
        suggestions = cm.suggest(constraint, polling_period=seconds(10))
        cm.install(constraint, suggestions[0])
        managers.append(cm)
    return managers
