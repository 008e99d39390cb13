"""E11 — Section 7.1: decomposing complex constraints into copies.

Paper claim: "consider the constraint X = Y + Z, where X, Y, and Z are at
three different sites.  A common way to manage this constraint is to have
cached copies Yc and Zc of Y and Z, respectively, at the site where X is.
Hence, we would have the constraints X = Yc + Zc, Yc = Y and Zc = Z.  Only
the simple copy constraints are distributed and they can be handled by the
strategies of Section 3.3.1."

The experiment builds the three-site federation, manages ``X = Y + Z`` with
the decomposition under both transports (notify-based caches vs. polled
caches), and reports: whether the issued guarantees hold, how stale X gets
relative to the true remote sum (the decomposition's documented weakening),
and the message cost.  Shape: both transports keep their guarantees;
notify-based caches track the true sum far more tightly and, at comparable
staleness, more cheaply than fast polling.
"""

from __future__ import annotations

from repro.cm import CMRID, ConstraintManager, Scenario
from repro.constraints import ArithmeticConstraint
from repro.core.guarantees.arithmetic import sum_timeline
from repro.core.interfaces import InterfaceKind
from repro.core.items import MISSING, DataItemRef
from repro.core.timebase import Ticks, seconds
from repro.experiments.common import (
    ExperimentResult,
    RunConfig,
    attach_observability,
    resolve_config,
)
from repro.ris.relational import RelationalDatabase
from repro.runtime.api import RuntimeSpec

CLAIM = (
    "X = Y + Z is managed by distributed copies plus a local recompute; "
    "all issued guarantees hold under both cache transports, and notify-"
    "based caches keep X fresher than polled ones"
)


def build_arithmetic_cm(
    seed: int, transport: str, period_s: float, runtime: RuntimeSpec = "sim"
):
    """Three sites holding X, Y, Z with the decomposition installed."""
    scenario = Scenario(seed=seed, runtime=runtime)
    cm = ConstraintManager(scenario)
    databases = {}
    for site, family in (("sx", "X"), ("sy", "Y"), ("sz", "Z")):
        cm.add_site(site)
        db = RelationalDatabase(f"db-{site}")
        db.execute("CREATE TABLE c (k TEXT PRIMARY KEY, v REAL)")
        databases[family] = db
        rid = CMRID("relational", f"db-{site}").bind(
            family, table="c", key_column="k", value_column="v", key=family
        )
        if family == "X":
            rid.offer(family, InterfaceKind.WRITE, bound_seconds=1.0)
            rid.offer(family, InterfaceKind.READ, bound_seconds=1.0)
        elif transport == "notify":
            rid.offer(family, InterfaceKind.NOTIFY, bound_seconds=1.0)
        else:
            rid.offer(family, InterfaceKind.READ, bound_seconds=1.0)
        cm.add_source(site, db, rid)
    constraint = cm.declare(ArithmeticConstraint("X", ("Y", "Z")))
    suggestions = cm.suggest(
        constraint,
        rule_delay=seconds(0.5),
        polling_period=seconds(period_s),
    )
    assert len(suggestions) == 1
    installed = cm.install(constraint, suggestions[0])
    return cm, databases, installed


def measure_staleness(cm: ConstraintManager) -> float:
    """Fraction of time X differs from the true remote sum Y + Z."""
    trace = cm.scenario.trace
    x_ref = DataItemRef("X")
    true_sum = sum_timeline(trace, [DataItemRef("Y"), DataItemRef("Z")])
    x_timeline = trace.timeline(x_ref)
    points: set[Ticks] = set()
    for timeline in (true_sum, x_timeline):
        for time in timeline.change_times():
            points.add(time)
    ordered = sorted(points)
    stale: Ticks = 0
    measured: Ticks = 0
    for index, start in enumerate(ordered):
        end = ordered[index + 1] if index + 1 < len(ordered) else trace.horizon
        if end <= start:
            continue
        expected = true_sum.value_at(start)
        actual = x_timeline.value_at(start)
        if expected is MISSING:
            continue
        measured += end - start
        if actual != expected:
            stale += end - start
    return stale / max(1, measured)


def run(
    config: RunConfig | None = None,
    *,
    update_count: int = 60,
    mean_gap_seconds: float = 8.0,
    polling_period_seconds: float = 5.0,
    seed: int = 11,
) -> ExperimentResult:
    """Run both cache transports; report guarantee verdicts and staleness."""
    config = resolve_config(config)
    seed = config.resolve_seed(seed)
    update_count = config.scaled(update_count)
    result = ExperimentResult(
        experiment="E11 arithmetic decomposition (Section 7.1)",
        claim=CLAIM,
        headers=[
            "transport",
            "updates",
            "guarantees",
            "all valid",
            "stale_frac",
            "messages",
        ],
    )
    staleness: dict[str, float] = {}
    for transport in ("notify", "poll"):
        cm, databases, installed = build_arithmetic_cm(
            seed, transport, polling_period_seconds,
            runtime=config.runtime_spec(),
        )
        rng = cm.scenario.rngs.stream("e11-workload")
        time = 5.0
        for __ in range(update_count):
            family = rng.choice(["Y", "Z"])
            value = float(rng.randint(0, 50))
            cm.scenario.sim.at(
                seconds(time),
                lambda f=family, v=value: cm.spontaneous_write(f, (), v),
            )
            time += rng.expovariate(1.0 / mean_gap_seconds)
        cm.run(until=seconds(time + 60))
        reports = cm.check_guarantees()
        all_valid = all(r.valid for r in reports.values())
        stale = measure_staleness(cm)
        staleness[transport] = stale
        result.rows.append(
            [
                transport,
                update_count,
                len(reports),
                all_valid,
                stale,
                cm.scenario.network.messages_sent,
            ]
        )
        if not all_valid:
            result.claim_holds = False
            for name, report in reports.items():
                if not report.valid:
                    result.notes.append(
                        f"{transport}: {name} violated: "
                        + "; ".join(report.counterexamples[:2])
                    )
    if staleness["notify"] >= staleness["poll"]:
        result.claim_holds = False
        result.notes.append(
            "notify-based caches were not fresher than polled ones"
        )
    result.notes.append(
        "stale_frac = fraction of time X differs from the true remote "
        "Y + Z; nonzero by design (the enforced constraint is the local "
        "X = Yc + Zc, the paper's weakening)"
    )
    attach_observability(result, cm)
    return result


def main() -> None:
    """Print the experiment's result table."""
    print(run().render())


if __name__ == "__main__":
    main()


def build_for_lint():
    """CM-Lint hook: both cache transports."""
    return [
        build_arithmetic_cm(11, transport, 5.0)[0]
        for transport in ("notify", "poll")
    ]
