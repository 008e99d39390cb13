"""E9 — Sections 4.2.3 / 4.3: reconfiguration cost.

Paper claims: "consider what happens if the administrator at site A decides
to change the interface for data item salary1(n) from the above notify
interface to a read interface...  we must use a polling strategy", and
"incorporating new databases or changing the interface to an existing
database requires very little work, since only the high-level interface and
strategy specifications have to be modified (and can be chosen from a menu
in most cases)".

The experiment performs the interface change as an administrator would:
edit the CM-RID (one offer swapped), re-survey, and take the toolkit's new
suggestion.  It reports how many *specification* entries changed (diffing
the CM-RID dict forms), that zero translator code changed (same standard
translator class both times), which guarantees were lost by the weaker
interface, and that both configurations run correctly end to end.
"""

from __future__ import annotations

from repro.core.guarantees import LeadsGuarantee
from repro.core.timebase import seconds
from repro.experiments.common import (
    ExperimentResult,
    RunConfig,
    attach_observability,
    build_salary_scenario,
    resolve_config,
)
from repro.workloads import UpdateStream
from repro.workloads.generators import random_walk

CLAIM = (
    "swapping salary1's notify interface for a read interface needs only a "
    "CM-RID edit; the toolkit re-suggests a polling strategy, losing "
    "exactly the leads guarantee, with no translator code changes"
)


def _dict_entries(data: dict, prefix: str = "") -> set[str]:
    entries: set[str] = set()
    for key, value in data.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            entries |= _dict_entries(value, path)
        elif isinstance(value, list):
            entries.add(f"{path}={value!r}")
        else:
            entries.add(f"{path}={value!r}")
    return entries


def run(
    config: RunConfig | None = None,
    *,
    seed: int = 8,
    duration: float = 300.0,
) -> ExperimentResult:
    """Perform the notify->read interface change and diff the configurations."""
    config = resolve_config(config)
    seed = config.resolve_seed(seed)
    result = ExperimentResult(
        experiment="E9 reconfiguration (Sections 4.2.3, 4.3)",
        claim=CLAIM,
        headers=[
            "configuration",
            "strategy",
            "guarantees",
            "all valid",
            "spec_changes",
            "code_changes",
        ],
    )
    configs = {}
    for label, offer_notify in (("notify", True), ("read-only", False)):
        salary = build_salary_scenario(
            strategy_kind="propagation" if offer_notify else "polling",
            seed=seed,
            offer_notify=offer_notify,
            polling_period=10.0,
            runtime=config.runtime_spec(),
        )
        UpdateStream(
            salary.cm,
            "salary1",
            ["e1", "e2", "e3"],
            rate=0.2,
            duration=seconds(duration),
            value_model=random_walk(step=50.0, start=500.0),
        )
        salary.cm.run(until=seconds(duration + 60))
        reports = salary.cm.check_guarantees()
        configs[label] = {
            "rid": _rid_of(salary),
            "strategy": salary.installed.strategy.kind,
            "guarantees": salary.installed.guarantees,
            "all_valid": all(r.valid for r in reports.values()),
            "translator_class": type(
                salary.cm.shell("sf").translator_for("salary1")
            ).__name__,
        }

    before = _dict_entries(configs["notify"]["rid"])
    after = _dict_entries(configs["read-only"]["rid"])
    spec_changes = len(before ^ after)
    code_changes = (
        0
        if configs["notify"]["translator_class"]
        == configs["read-only"]["translator_class"]
        else 1
    )
    for label in ("notify", "read-only"):
        config = configs[label]
        result.rows.append(
            [
                label,
                config["strategy"],
                len(config["guarantees"]),
                config["all_valid"],
                spec_changes if label == "read-only" else 0,
                code_changes if label == "read-only" else 0,
            ]
        )
        if not config["all_valid"]:
            result.claim_holds = False
            result.notes.append(f"{label}: an issued guarantee was violated")

    kept = {g.name for g in configs["read-only"]["guarantees"]}
    lost = [g for g in configs["notify"]["guarantees"] if g.name not in kept]
    lost_names = sorted(g.name for g in lost)
    if not any(isinstance(g, LeadsGuarantee) for g in lost):
        result.claim_holds = False
        result.notes.append(
            f"expected the leads guarantee to be lost; lost: {lost_names}"
        )
    if code_changes != 0:
        result.claim_holds = False
        result.notes.append("the standard translator had to be replaced")
    result.notes.append(f"guarantees lost by weakening the interface: {lost_names}")
    attach_observability(result, salary.cm)
    return result


def _rid_of(salary) -> dict:
    translator = salary.cm.shell("sf").translator_for("salary1")
    return translator.rid.to_dict()


def main() -> None:
    """Print the experiment's result table."""
    print(run().render())


if __name__ == "__main__":
    main()


def build_for_lint():
    """CM-Lint hook: both interface generations the experiment swaps
    between (notify-capable, then read-only with polling)."""
    return [
        build_salary_scenario(
            strategy_kind="propagation", seed=8, offer_notify=True
        ).cm,
        build_salary_scenario(
            strategy_kind="polling",
            seed=8,
            offer_notify=False,
            polling_period=10.0,
        ).cm,
    ]
