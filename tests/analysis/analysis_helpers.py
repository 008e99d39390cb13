"""Scenario scaffolding for CM-Lint tests.

``salary_cm(kind)`` wires the Section 4.2 personnel scenario via the
catalog (the canonical lint-clean configuration); ``bare_two_site()``
wires the same sources *without* installing any strategy, so tests can
install handcrafted (often deliberately broken) rules, through the
surveyed ``cm.install_rule(...)`` or directly on the shells.
"""

from __future__ import annotations

from repro.cm import CMRID, ConstraintManager, Scenario
from repro.core.interfaces import InterfaceKind
from repro.ris.relational import RelationalDatabase


def bare_two_site(
    seed: int = 0,
    offer_notify: bool = True,
    offer_write: bool = True,
    offer_read: bool = True,
) -> ConstraintManager:
    """sf/ny with salary1 (notify+read) and salary2 (write+read+quiet),
    no strategy installed; each flag withdraws one of those offers."""
    cm = ConstraintManager(Scenario(seed=seed))
    cm.add_site("sf")
    cm.add_site("ny")

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
        rid_a.offer("salary1", InterfaceKind.NOTIFY, bound_seconds=2.0)
    if offer_read:
        rid_a.offer("salary1", InterfaceKind.READ, bound_seconds=1.0)
    cm.add_source("sf", branch, rid_a)

    hq = RelationalDatabase("hq")
    hq.execute("CREATE TABLE employees (empid TEXT PRIMARY KEY, salary REAL)")
    rid_b = CMRID("relational", "hq").bind(
        "salary2",
        params=("n",),
        table="employees",
        key_column="empid",
        value_column="salary",
    )
    if offer_write:
        rid_b.offer("salary2", InterfaceKind.WRITE, bound_seconds=2.0)
    rid_b.offer("salary2", InterfaceKind.READ, bound_seconds=1.0)
    rid_b.offer("salary2", InterfaceKind.NO_SPONTANEOUS_WRITE)
    cm.add_source("ny", hq, rid_b)
    return cm


def salary_cm(kind: str = "propagation", seed: int = 0):
    """The catalog-installed personnel scenario (lint-clean by design)."""
    from repro.experiments.common import build_salary_scenario

    return build_salary_scenario(strategy_kind=kind, seed=seed).cm


def codes_of(report) -> list[str]:
    """All diagnostic codes in a report (unsuppressed findings only)."""
    return [finding.code for finding in report.diagnostics]
