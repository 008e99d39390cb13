"""E4 — Section 6.1: the Demarcation Protocol.

Paper claims: (a) "The protocol guarantees that the constraint X <= Y is
always valid" — including during limit-change handshakes; (b) different
limit-change *policies* yield implementations of different quality — the
degenerate one that never moves the limits is valid but denies every local
update beyond the initial slack.

The experiment runs the inventory workload under each slack policy and
reports: the X <= Y invariant verdict (checked continuously from the trace),
the Lx <= Ly limit invariant, the denied-update fraction, and the message
count.  Shape: every policy keeps the invariant; FROZEN denies the most;
EAGER uses the fewest handshakes.
"""

from __future__ import annotations

from repro.cm import CMRID, ConstraintManager, Scenario
from repro.constraints import InequalityConstraint
from repro.core.interfaces import InterfaceKind
from repro.core.timebase import seconds
from repro.experiments.common import (
    ExperimentResult,
    RunConfig,
    attach_observability,
    resolve_config,
)
from repro.protocols.demarcation import SlackPolicy
from repro.runtime.api import RuntimeSpec
from repro.ris.relational import RelationalDatabase
from repro.workloads import InventoryWorkload

CLAIM = (
    "X <= Y holds at every instant under every slack policy; the frozen "
    "policy denies the most updates and eager needs the fewest handshakes"
)


def build_inventory_cm(
    seed: int, policy: SlackPolicy, runtime: RuntimeSpec = "sim"
) -> tuple[ConstraintManager, object]:
    """Two sites, two relational DBs, the demarcation protocol installed."""
    scenario = Scenario(seed=seed, runtime=runtime)
    cm = ConstraintManager(scenario)
    cm.add_site("storefront")
    cm.add_site("warehouse")

    store_db = RelationalDatabase("orders")
    store_db.execute("CREATE TABLE counters (name TEXT PRIMARY KEY, val REAL)")
    rid_store = (
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
    cm.add_source("storefront", store_db, rid_store)

    stock_db = RelationalDatabase("stock")
    stock_db.execute("CREATE TABLE counters (name TEXT PRIMARY KEY, val REAL)")
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
    cm.add_source("warehouse", stock_db, rid_stock)

    constraint = cm.declare(InequalityConstraint("committed", "stock"))
    suggestions = cm.suggest(constraint, demarcation_policy=policy)
    installed = cm.install(
        constraint,
        suggestions[0],
        # Plenty of warehouse stock: denials then measure the *policy's*
        # slack allocation, not a fundamentally infeasible workload.
        initial_x=0.0,
        initial_y=5000.0,
        initial_limit=50.0,
    )
    return cm, installed


def run(
    config: RunConfig | None = None,
    *,
    policies: tuple[SlackPolicy, ...] = (
        SlackPolicy.EXACT,
        SlackPolicy.EAGER,
        SlackPolicy.SPLIT,
        SlackPolicy.FROZEN,
    ),
    duration_seconds: float = 600.0,
    seed: int = 3,
) -> ExperimentResult:
    """Drive the inventory workload under each slack policy."""
    config = resolve_config(config)
    seed = config.resolve_seed(seed)
    result = ExperimentResult(
        experiment="E4 demarcation protocol (Section 6.1)",
        claim=CLAIM,
        headers=[
            "policy",
            "attempts",
            "applied",
            "denied",
            "denied_frac",
            "requests",
            "X<=Y",
            "Lx<=Ly",
        ],
    )
    denied_by_policy: dict[SlackPolicy, float] = {}
    requests_by_policy: dict[SlackPolicy, int] = {}
    for policy in policies:
        cm, installed = build_inventory_cm(
            seed, policy, runtime=config.runtime_spec()
        )
        protocol = installed.native_protocol
        InventoryWorkload(
            cm.scenario.sim,
            cm.scenario.rngs,
            protocol,
            duration=seconds(duration_seconds),
        )
        cm.run(until=seconds(duration_seconds + 30))
        reports = cm.check_guarantees()
        # The catalog issues the value invariant X <= Y, then Lx <= Ly.
        value_invariant, limit_invariant = installed.guarantees
        value_ok = reports[value_invariant.name]
        limit_ok = reports[limit_invariant.name]
        stats_x = protocol.x_agent.stats
        stats_y = protocol.y_agent.stats
        attempts = stats_x.updates_attempted + stats_y.updates_attempted
        applied = stats_x.updates_applied + stats_y.updates_applied
        denied = stats_x.updates_denied + stats_y.updates_denied
        requests = stats_x.requests_sent + stats_y.requests_sent
        denied_fraction = denied / max(1, attempts)
        denied_by_policy[policy] = denied_fraction
        requests_by_policy[policy] = requests
        result.rows.append(
            [
                policy.value,
                attempts,
                applied,
                denied,
                denied_fraction,
                requests,
                value_ok.valid,
                limit_ok.valid,
            ]
        )
        if not (value_ok.valid and limit_ok.valid):
            result.claim_holds = False
            result.notes.append(f"invariant broken under {policy.value}")
    active = [p for p in policies if p is not SlackPolicy.FROZEN]
    if SlackPolicy.FROZEN in denied_by_policy and active:
        worst_active = max(denied_by_policy[p] for p in active)
        if denied_by_policy[SlackPolicy.FROZEN] <= worst_active:
            result.claim_holds = False
            result.notes.append(
                "the frozen policy did not deny the most updates"
            )
    if (
        SlackPolicy.EAGER in requests_by_policy
        and SlackPolicy.EXACT in requests_by_policy
        and requests_by_policy[SlackPolicy.EAGER]
        > requests_by_policy[SlackPolicy.EXACT]
    ):
        result.claim_holds = False
        result.notes.append("eager slack needed more handshakes than exact")
    attach_observability(result, cm)
    return result


def main() -> None:
    """Print the experiment's result table."""
    print(run().render())


if __name__ == "__main__":
    main()


def build_for_lint():
    """CM-Lint hook: the inventory wiring (the protocol itself is a
    programmed native strategy, so only its interface rules are nodes)."""
    return build_inventory_cm(3, SlackPolicy.EXACT)[0]
