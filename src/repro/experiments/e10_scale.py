"""E10 — Sections 4.3 / 7.2: scaling without global coordination.

Paper claims: the toolkit "coordinate[s] the activities of the loosely
coupled, heterogeneous databases without modifying the databases or the
existing applications"; strategies need no global data access, no global
transactions, and no clock synchronization — each rule runs at the shell
owning its LHS, so adding sites/constraints adds only local work plus
point-to-point messages.

The experiment builds a hub-and-spoke federation (one primary personnel
database, N replica sites, one parameterized copy constraint per replica),
drives a fixed-rate update stream, and reports — per federation size — the
end-to-end propagation latency percentiles and per-site event counts.
Shape: latency stays flat as sites are added (fan-out adds messages, not
coordination rounds), demonstrating the no-global-coordination claim.
"""

from __future__ import annotations

from repro.cm import CMRID, ConstraintManager, Scenario
from repro.constraints import CopyConstraint
from repro.core.events import EventKind
from repro.core.interfaces import InterfaceKind
from repro.core.timebase import seconds, to_seconds
from repro.experiments.common import (
    ExperimentResult,
    RunConfig,
    attach_observability,
    pick_suggestion,
    resolve_config,
)
from repro.runtime.api import RuntimeSpec
from repro.ris.relational import RelationalDatabase
from repro.workloads import UpdateStream

CLAIM = (
    "per-update propagation latency stays flat as replica sites are added: "
    "rule distribution keeps all work local plus point-to-point messages"
)


def build_federation(
    replica_count: int, seed: int, runtime: RuntimeSpec = "sim"
) -> tuple[ConstraintManager, list[str]]:
    """A hub source plus N replica sites, one copy constraint per replica."""
    scenario = Scenario(seed=seed, runtime=runtime)
    cm = ConstraintManager(scenario)
    cm.add_site("hub")
    hub_db = RelationalDatabase("hub-db")
    hub_db.execute("CREATE TABLE people (pid TEXT PRIMARY KEY, phone TEXT)")
    rid_hub = (
        CMRID("relational", "hub-db")
        .bind(
            "phone0",
            params=("n",),
            table="people",
            key_column="pid",
            value_column="phone",
        )
        .offer("phone0", InterfaceKind.NOTIFY, bound_seconds=2.0)
        .offer("phone0", InterfaceKind.READ, bound_seconds=1.0)
    )
    cm.add_source("hub", hub_db, rid_hub)
    replica_families = []
    for index in range(1, replica_count + 1):
        site = f"replica{index}"
        family = f"phone{index}"
        cm.add_site(site)
        db = RelationalDatabase(f"replica-db-{index}")
        db.execute("CREATE TABLE people (pid TEXT PRIMARY KEY, phone TEXT)")
        rid = (
            CMRID("relational", f"replica-db-{index}")
            .bind(
                family,
                params=("n",),
                table="people",
                key_column="pid",
                value_column="phone",
            )
            .offer(family, InterfaceKind.WRITE, bound_seconds=2.0)
            .offer(family, InterfaceKind.NO_SPONTANEOUS_WRITE)
        )
        cm.add_source(site, db, rid)
        constraint = cm.declare(
            CopyConstraint("phone0", family, params=("n",))
        )
        suggestion = pick_suggestion(
            cm.suggest(constraint, rule_delay=seconds(1)), "propagation"
        )
        cm.install(constraint, suggestion)
        replica_families.append(family)
    return cm, replica_families


def measure_propagation_latencies(
    cm: ConstraintManager, replica_families: list[str]
) -> list[float]:
    """Per (source write, replica) end-to-end latencies, in seconds."""
    trace = cm.scenario.trace
    latencies: list[float] = []
    families = set(replica_families)
    for event in trace.events_of_kind(EventKind.WRITE):
        item = event.desc.item
        if item is None or item.name not in families:
            continue
        # Walk provenance back to the originating spontaneous write.
        origin = event
        while origin.trigger is not None:
            origin = origin.trigger
        if origin.desc.kind is EventKind.SPONTANEOUS_WRITE:
            latencies.append(to_seconds(event.time - origin.time))
    return latencies


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def run(
    config: RunConfig | None = None,
    *,
    replica_counts: tuple[int, ...] = (1, 2, 4, 8),
    people: int = 10,
    rate: float = 1.0,
    duration: float = 120.0,
    seed: int = 9,
) -> ExperimentResult:
    """Sweep federation sizes; report latency percentiles and message counts."""
    config = resolve_config(config)
    seed = config.resolve_seed(seed)
    people = config.scaled(people)
    result = ExperimentResult(
        experiment="E10 scale-out (Sections 4.3, 7.2)",
        claim=CLAIM,
        headers=[
            "replicas",
            "events",
            "messages",
            "p50_lat_s",
            "p95_lat_s",
            "all_valid",
        ],
    )
    p95_by_size: dict[int, float] = {}
    for replica_count in replica_counts:
        cm, families = build_federation(
            replica_count, seed, runtime=config.runtime_spec()
        )
        def phone_numbers(stream, key):
            return f"555-{stream.rng.randint(1000, 9999)}"

        UpdateStream(
            cm,
            "phone0",
            [f"p{i}" for i in range(people)],
            rate=rate,
            duration=seconds(duration),
            value_model=phone_numbers,
        )
        cm.run(until=seconds(duration + 30))
        latencies = measure_propagation_latencies(cm, families)
        reports = cm.check_guarantees()
        all_valid = all(r.valid for r in reports.values())
        p50 = _percentile(latencies, 0.50)
        p95 = _percentile(latencies, 0.95)
        p95_by_size[replica_count] = p95
        result.rows.append(
            [
                replica_count,
                len(cm.scenario.trace.events),
                cm.scenario.network.messages_sent,
                p50,
                p95,
                all_valid,
            ]
        )
        if not all_valid:
            result.claim_holds = False
            result.notes.append(
                f"{replica_count} replicas: a guarantee was violated"
            )
    smallest = min(p95_by_size)
    largest = max(p95_by_size)
    if p95_by_size[largest] > 3.0 * max(p95_by_size[smallest], 0.05):
        result.claim_holds = False
        result.notes.append(
            "p95 propagation latency grew super-linearly with fan-out"
        )
    attach_observability(result, cm)
    return result


def main() -> None:
    """Print the experiment's result table."""
    print(run().render())


if __name__ == "__main__":
    main()


def build_for_lint():
    """CM-Lint hook: a small federation (the sweep only changes N)."""
    return build_federation(replica_count=2, seed=9)[0]
