"""The Demarcation Protocol on an inventory constraint (Section 6.1).

A storefront's committed orders ``X`` must never exceed the warehouse's
stock ``Y`` — ``X <= Y`` with the two counters in different databases.  The
Demarcation Protocol maintains local limits so that both sites can keep
accepting updates *without distributed transactions*, while the inequality
provably holds at every instant, even mid-handshake.

The example installs the protocol via the toolkit's catalog, drives sales
and warehouse adjustments, and reports the protocol statistics plus the
continuously-checked invariant.

Run:  python examples/demarcation_inventory.py
"""

from repro import (
    CMRID,
    ConstraintManager,
    InequalityConstraint,
    InterfaceKind,
    Scenario,
    seconds,
)
from repro.protocols.demarcation import SlackPolicy
from repro.ris.relational import RelationalDatabase
from repro.workloads import InventoryWorkload


def build():
    """Wire both counters and install the demarcation protocol."""
    scenario = Scenario(seed=99)
    cm = ConstraintManager(scenario)

    orders_db = RelationalDatabase("orders")
    orders_db.execute(
        "CREATE TABLE counters (name TEXT PRIMARY KEY, val REAL)"
    )
    rid_orders = (
        CMRID("relational", "orders")
        .bind(
            "committed",
            table="counters",
            key_column="name",
            value_column="val",
            key="committed",
        )
        .offer("committed", InterfaceKind.READ, bound_seconds=1.0)
        .offer("committed", InterfaceKind.WRITE, bound_seconds=1.0)
    )
    cm.add_site("storefront")
    cm.add_source("storefront", orders_db, rid_orders)

    stock_db = RelationalDatabase("stock")
    stock_db.execute(
        "CREATE TABLE counters (name TEXT PRIMARY KEY, val REAL)"
    )
    rid_stock = (
        CMRID("relational", "stock")
        .bind(
            "stock",
            table="counters",
            key_column="name",
            value_column="val",
            key="stock",
        )
        .offer("stock", InterfaceKind.READ, bound_seconds=1.0)
        .offer("stock", InterfaceKind.WRITE, bound_seconds=1.0)
    )
    cm.add_site("warehouse")
    cm.add_source("warehouse", stock_db, rid_stock)

    # Declare, survey, install; the demarcation protocol's construction
    # arguments travel as install keywords.
    constraint = cm.declare(InequalityConstraint("committed", "stock"))
    suggestions = cm.suggest(constraint, demarcation_policy=SlackPolicy.SPLIT)
    demarcation = cm.install(
        constraint,
        suggestions[0],
        initial_x=0.0,
        initial_y=1000.0,
        initial_limit=100.0,
    )
    return cm, demarcation


def build_for_lint():
    """CM-Lint hook: the wired inventory before any sales."""
    return build()[0]


def main() -> None:
    cm, demarcation = build()
    scenario = cm.scenario
    print("installed:", demarcation.strategy.name)
    for guarantee in demarcation.guarantees:
        print("  guarantees:", guarantee)

    protocol = demarcation.native_protocol

    InventoryWorkload(
        scenario.sim,
        scenario.rngs,
        protocol,
        duration=seconds(600),
        x_rate=0.5,
        y_rate=0.2,
    )
    cm.run(until=seconds(700))

    x_stats = protocol.x_agent.stats
    y_stats = protocol.y_agent.stats
    print(
        f"\nstorefront: {x_stats.updates_applied}/"
        f"{x_stats.updates_attempted} sales applied, "
        f"{x_stats.requests_sent} limit handshakes"
    )
    print(
        f"warehouse:  {y_stats.updates_applied}/"
        f"{y_stats.updates_attempted} adjustments applied"
    )
    print(
        f"final state: committed={protocol.x_agent.value:.2f} "
        f"(limit {protocol.x_agent.limit:.2f})  "
        f"stock={protocol.y_agent.value:.2f} "
        f"(limit {protocol.y_agent.limit:.2f})"
    )
    print("\ncontinuous invariant check over the whole run:")
    for report in cm.check_guarantees().values():
        print(f"  {report}")


if __name__ == "__main__":
    main()
