"""The pluggable check battery CM-Lint runs over a trigger graph.

Each check is a callable ``(ctx, report) -> None`` taking the
:class:`~repro.analysis.lint.LintContext` and appending
:class:`~repro.analysis.diagnostics.Diagnostic` findings to the report.
``ALL_CHECKS`` is the default battery, in the order the families are
numbered; callers may run a subset (strict installation mode skips the
checks that need manager-wide context).
"""

from __future__ import annotations

from repro.analysis.checks.conflicts import check_write_conflicts
from repro.analysis.checks.cycles import check_cycles
from repro.analysis.checks.dead import check_dead_rules
from repro.analysis.checks.feasibility import check_feasibility
from repro.analysis.checks.interface import check_interface_compliance
from repro.analysis.checks.variables import check_variable_safety

#: The default battery: (family name, check callable).
ALL_CHECKS = [
    ("interface-compliance", check_interface_compliance),
    ("variable-safety", check_variable_safety),
    ("cycles", check_cycles),
    ("dead-rules", check_dead_rules),
    ("write-conflicts", check_write_conflicts),
    ("guarantee-feasibility", check_feasibility),
]

__all__ = [
    "ALL_CHECKS",
    "check_interface_compliance",
    "check_variable_safety",
    "check_cycles",
    "check_dead_rules",
    "check_write_conflicts",
    "check_feasibility",
]
