"""CM-Lint entry points: analyze a wired manager or a single shell.

``lint_manager(cm)`` is the full analysis: it builds the static trigger
graph over every shell's installed rules plus every translator's offered
interface rules, then runs the whole check battery.  ``lint_shell(shell)``
is the reduced, single-site view used by strict installation mode — checks
needing manager-wide context (guarantee feasibility, cross-site conflict
ordering) degrade gracefully because remote rules simply are not nodes.

No events are executed and nothing is mutated; linting a configuration is
safe at any point after wiring, including mid-install.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.checks import ALL_CHECKS
from repro.analysis.diagnostics import LintReport
from repro.analysis.graph import (
    TriggerGraph,
    build_shell_graph,
    build_trigger_graph,
)
from repro.core.interfaces import InterfaceSet


@dataclass
class LintContext:
    """Everything a check may consult.  Optional fields are ``None`` when
    linting a single shell without its manager."""

    graph: TriggerGraph
    interfaces: InterfaceSet
    #: ``"manager"`` or ``"shell"`` — how much of the world is in view.
    scope: str = "manager"
    #: Families -> sites hosting a translator for them.
    translator_sites: dict[str, set[str]] = field(default_factory=dict)
    #: Families registered somewhere (translator-backed or shell-private).
    known_families: set[str] = field(default_factory=set)
    #: Shell-private families (registered, but no translator owns them).
    private_families: set[str] = field(default_factory=set)
    network: Optional[object] = None
    guarantees: list = field(default_factory=list)

    def family_known(self, family: str) -> bool:
        if self.scope == "shell":
            # A single shell cannot see remote registrations; only claim
            # knowledge of what is locally resolvable.
            return family in self.translator_sites or (
                family in self.known_families
            )
        return family in self.known_families

    def is_private(self, family: str) -> bool:
        return family in self.private_families

    def has_translator(self, family: str, site: str) -> bool:
        return site in self.translator_sites.get(family, ())


def _translator_map(shells) -> dict[str, set[str]]:
    sites: dict[str, set[str]] = {}
    for site, shell in shells.items():
        for family in shell.translators:
            sites.setdefault(family, set()).add(site)
    return sites


def manager_context(cm) -> LintContext:
    """The full-view lint context for a wired ConstraintManager."""
    translator_sites = _translator_map(cm.shells)
    known = set(cm.locations.families())
    private = {f for f in known if f not in translator_sites}
    guarantees = [
        guarantee
        for installed in cm.installed
        for guarantee in installed.guarantees
    ]
    return LintContext(
        graph=build_trigger_graph(cm),
        interfaces=cm.interfaces(),
        scope="manager",
        translator_sites=translator_sites,
        known_families=known,
        private_families=private,
        network=cm.scenario.network,
        guarantees=guarantees,
    )


def shell_context(shell) -> LintContext:
    """The single-site lint context strict installation mode uses."""
    translator_sites: dict[str, set[str]] = {
        family: {shell.site} for family in shell.translators
    }
    interfaces = InterfaceSet()
    seen: set[int] = set()
    for translator in shell.translators.values():
        if id(translator) in seen:
            continue
        seen.add(id(translator))
        for spec in translator.offered_interfaces().specs:
            interfaces.add(spec)
    # Private families at shell scope: anything a local rule W-writes that
    # no translator owns is (by construction) shell-private store data.
    known = set(translator_sites)
    return LintContext(
        graph=build_shell_graph(shell),
        interfaces=interfaces,
        scope="shell",
        translator_sites=translator_sites,
        known_families=known,
        network=shell.network,
    )


def run_checks(
    context: LintContext,
    suppress: tuple[str, ...] = (),
    checks=ALL_CHECKS,
) -> LintReport:
    """Run a check battery over a prepared context."""
    report = LintReport()
    for __, check in checks:
        check(context, report)
    return report.finalize(suppress)


def lint_manager(cm, *, suppress: tuple[str, ...] = ()) -> LintReport:
    """Statically analyze a fully wired ConstraintManager."""
    return run_checks(manager_context(cm), suppress)


#: Check families that are meaningful with only one shell in view.  The
#: single-site view cannot reason about remote reachability, ordering, or
#: guarantee paths, so dead-rule, conflict, and feasibility checks would
#: produce spurious findings there.
SHELL_CHECK_NAMES = (
    "interface-compliance",
    "variable-safety",
    "cycles",
)


def lint_shell(shell, *, suppress: tuple[str, ...] = ()) -> LintReport:
    """Statically analyze one CM-Shell's installed rules and interfaces."""
    checks = [
        entry for entry in ALL_CHECKS if entry[0] in SHELL_CHECK_NAMES
    ]
    return run_checks(shell_context(shell), suppress, checks)
