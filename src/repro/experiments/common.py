"""Shared scenario builders and reporting helpers for the experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.cm import CMRID, ConstraintManager, Scenario
from repro.cm.manager import InstalledConstraint
from repro.cm.translator import ServiceModel
from repro.constraints import CopyConstraint
from repro.core.catalog import Suggestion
from repro.core.errors import ConfigurationError
from repro.core.guarantees import Guarantee
from repro.core.interfaces import InterfaceKind
from repro.core.timebase import seconds
from repro.ris.relational import RelationalDatabase
from repro.runtime.api import RunConfig, RuntimeSpec, resolve_config
from repro.sim.failures import FailurePlan
from repro.sim.network import FixedLatency, LatencyModel

__all__ = [
    "ExperimentResult",
    "RunConfig",
    "SalaryScenario",
    "attach_observability",
    "build_salary_scenario",
    "format_table",
    "pick_suggestion",
    "resolve_config",
]


@dataclass
class SalaryScenario:
    """The Section 4.2 personnel scenario, fully wired.

    Two relational databases (San Francisco branch, New York headquarters)
    with the parameterized copy constraint ``salary1(n) = salary2(n)``.
    """

    scenario: Scenario
    cm: ConstraintManager
    branch_db: RelationalDatabase
    hq_db: RelationalDatabase
    constraint: CopyConstraint
    installed: InstalledConstraint
    suggestion: Suggestion

    def issued(self, kind: type, metric: bool | None = None) -> Guarantee:
        """The first guarantee of type ``kind`` issued for the constraint;
        only a metric (or only a non-metric) one when ``metric`` says so.
        ``check_guarantees()`` keys its report by the guarantee's ``name``."""
        return next(
            g
            for g in self.installed.guarantees
            if isinstance(g, kind) and metric in (None, g.metric)
        )


def build_salary_scenario(
    strategy_kind: str = "propagation",
    seed: int = 0,
    notify_bound: float = 2.0,
    read_bound: float = 1.0,
    write_bound: float = 2.0,
    rule_delay: float = 1.0,
    polling_period: float = 60.0,
    offer_notify: bool = True,
    offer_read: bool = True,
    latency: Optional[LatencyModel] = None,
    failure_plan: Optional[FailurePlan] = None,
    in_order: bool = True,
    service: Optional[ServiceModel] = None,
    runtime: RuntimeSpec = "sim",
) -> SalaryScenario:
    """Build and install the salary copy-constraint scenario.

    ``strategy_kind`` picks among the catalog's suggestions
    (``propagation``, ``cached-propagation``, ``polling``).  Disabling
    ``offer_notify`` reproduces the Section 4.2.3 interface change that
    forces a polling strategy.  ``runtime`` selects the execution
    substrate — pass a :class:`~repro.runtime.api.RunConfig`'s
    ``runtime_spec()`` to run the same wiring over real sockets.
    """
    scenario = Scenario(
        seed=seed,
        default_latency=latency or FixedLatency(seconds(0.05)),
        failure_plan=failure_plan or FailurePlan(),
        in_order=in_order,
        runtime=runtime,
    )
    cm = ConstraintManager(scenario)
    cm.add_site("sf")
    cm.add_site("ny")

    branch_db = RelationalDatabase("branch")
    branch_db.execute(
        "CREATE TABLE employees (empid TEXT PRIMARY KEY, salary REAL)"
    )
    rid_branch = CMRID("relational", "branch").bind(
        "salary1",
        params=("n",),
        table="employees",
        key_column="empid",
        value_column="salary",
    )
    if offer_notify:
        rid_branch.offer(
            "salary1", InterfaceKind.NOTIFY, bound_seconds=notify_bound
        )
    if offer_read:
        rid_branch.offer(
            "salary1", InterfaceKind.READ, bound_seconds=read_bound
        )
    cm.add_source("sf", branch_db, rid_branch, service)

    hq_db = RelationalDatabase("hq")
    hq_db.execute(
        "CREATE TABLE employees (empid TEXT PRIMARY KEY, salary REAL)"
    )
    rid_hq = (
        CMRID("relational", "hq")
        .bind(
            "salary2",
            params=("n",),
            table="employees",
            key_column="empid",
            value_column="salary",
        )
        .offer("salary2", InterfaceKind.WRITE, bound_seconds=write_bound)
        .offer("salary2", InterfaceKind.NO_SPONTANEOUS_WRITE)
    )
    cm.add_source("ny", hq_db, rid_hq, service)

    constraint = cm.declare(
        CopyConstraint("salary1", "salary2", params=("n",))
    )
    suggestions = cm.suggest(
        constraint,
        rule_delay=seconds(rule_delay),
        polling_period=seconds(polling_period),
    )
    chosen = pick_suggestion(suggestions, strategy_kind)
    installed = cm.install(constraint, chosen)
    return SalaryScenario(
        scenario, cm, branch_db, hq_db, constraint, installed, chosen
    )


def pick_suggestion(
    suggestions: Sequence[Suggestion], strategy_kind: str
) -> Suggestion:
    """Select one suggestion by its strategy kind."""
    for suggestion in suggestions:
        if suggestion.strategy.kind == strategy_kind:
            return suggestion
    kinds = [s.strategy.kind for s in suggestions]
    raise ConfigurationError(
        f"no suggested strategy of kind {strategy_kind!r} (have: {kinds})"
    )


# -- reporting -------------------------------------------------------------------


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned ASCII table (the harness's 'same rows the paper
    reports' output format)."""
    rendered = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _render_cell(cell: Any) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


@dataclass
class ExperimentResult:
    """One experiment's output: a table plus the claim verdicts.

    ``observability`` and ``run_report`` (both optional, PR 2) carry the
    final scenario's virtual-clock reading, aggregated dispatch counters,
    and the structured :class:`~repro.obs.report.RunReport`, so the
    ``--json`` runner output and the benchmark JSON files record how the
    result was produced, not just what it was.
    """

    experiment: str
    claim: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    claim_holds: bool = True
    notes: list[str] = field(default_factory=list)
    observability: Optional[dict] = None
    run_report: Any = None

    def render(self) -> str:
        """The experiment's printable block: claim, verdict, table, notes."""
        verdict = "REPRODUCED" if self.claim_holds else "NOT REPRODUCED"
        parts = [
            f"== {self.experiment} ==",
            f"claim: {self.claim}",
            f"verdict: {verdict}",
            format_table(self.headers, self.rows),
        ]
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready form (used by ``runner --json`` and bench files)."""
        data: dict[str, Any] = {
            "experiment": self.experiment,
            "claim": self.claim,
            "claim_holds": self.claim_holds,
            "verdict": "REPRODUCED" if self.claim_holds else "NOT REPRODUCED",
            "headers": list(self.headers),
            "rows": [[_jsonable_cell(cell) for cell in row] for row in self.rows],
            "notes": list(self.notes),
        }
        if self.observability is not None:
            data["observability"] = self.observability
        if self.run_report is not None:
            data["run_report"] = self.run_report.to_dict()
        return data


def _jsonable_cell(cell: Any) -> Any:
    if isinstance(cell, (bool, int, float, str)) or cell is None:
        return cell
    return str(cell)


def attach_observability(
    result: ExperimentResult, cm: ConstraintManager
) -> ExperimentResult:
    """Record a scenario's clock, dispatch counters, and run report.

    Experiments call this on their final (or only) scenario so the JSON
    outputs carry the virtual-time cost of reproducing each claim.
    """
    from repro.core.timebase import to_seconds

    sim = cm.scenario.sim
    result.observability = {
        "ticks": sim.now,
        "virtual_seconds": to_seconds(sim.now),
        "dispatch": cm.stats()["total"],
        "messages_sent": cm.scenario.network.messages_sent,
        "max_queue_depth": sim.max_queue_depth,
    }
    result.run_report = cm.run_report()
    return result
