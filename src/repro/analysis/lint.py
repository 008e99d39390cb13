"""CM-Lint entry point: analyze a wired manager.

``lint_manager(cm)`` builds the static trigger graph over every shell's
installed rules plus every translator's offered interface rules, then runs
the check battery.  No events are executed and nothing is mutated; linting
a configuration is safe at any point after wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.checks import ALL_CHECKS
from repro.analysis.diagnostics import LintReport
from repro.analysis.graph import TriggerGraph, build_trigger_graph


@dataclass
class LintContext:
    """Everything a check may consult."""

    graph: TriggerGraph
    network: Optional[object] = None
    guarantees: list = field(default_factory=list)


def manager_context(cm) -> LintContext:
    """The lint context for a wired ConstraintManager."""
    guarantees = [
        guarantee
        for installed in cm.installed
        for guarantee in installed.guarantees
    ]
    return LintContext(
        graph=build_trigger_graph(cm),
        network=cm.scenario.network,
        guarantees=guarantees,
    )


def run_checks(
    context: LintContext, suppress: tuple[str, ...] = ()
) -> LintReport:
    """Run the check battery over a prepared context."""
    report = LintReport()
    for __, check in ALL_CHECKS:
        check(context, report)
    return report.finalize(suppress)


def lint_manager(cm, *, suppress: tuple[str, ...] = ()) -> LintReport:
    """Statically analyze a fully wired ConstraintManager."""
    return run_checks(manager_context(cm), suppress)
