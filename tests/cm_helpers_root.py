"""Scenario helpers importable from root-level test modules."""

from __future__ import annotations

import pytest

from repro.cm import CMRID, ConstraintManager, Scenario
from repro.core.interfaces import InterfaceKind
from repro.ris.relational import RelationalDatabase


def build_two_site(seed: int = 0, offer_notify: bool = True, runtime="sim"):
    """A minimal sf/ny salary pair (mirrors tests/cm/cm_helpers.py)."""
    scenario = Scenario(seed=seed, runtime=runtime)
    cm = ConstraintManager(scenario)
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
    rid_a.offer("salary1", InterfaceKind.READ, bound_seconds=1.0)
    cm.add_source("sf", branch, rid_a)
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
    cm.add_source("ny", hq, rid_b)
    return cm, branch, hq


def build_banking_site():
    """A single-site balance1 holder for banking-workload tests."""
    scenario = Scenario(seed=0)
    cm = ConstraintManager(scenario)
    cm.add_site("branch")
    db = RelationalDatabase("ledger")
    db.execute("CREATE TABLE accounts (acct TEXT PRIMARY KEY, balance REAL)")
    rid = CMRID("relational", "ledger").bind(
        "balance1",
        params=("n",),
        table="accounts",
        key_column="acct",
        value_column="balance",
    ).offer("balance1", InterfaceKind.READ, bound_seconds=1.0)
    cm.add_source("branch", db, rid)
    return cm


@pytest.fixture
def two_site():
    return build_two_site()
