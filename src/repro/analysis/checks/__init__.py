"""The check battery CM-Lint runs over a trigger graph.

Each check is a callable ``(ctx, report) -> None`` taking the
:class:`~repro.analysis.lint.LintContext` and appending
:class:`~repro.analysis.diagnostics.Diagnostic` findings to the report.
``ALL_CHECKS`` is the battery, in the order the code families are
numbered.  Each check flags a mistake nothing else in the toolkit reports;
the interface survey lives in ``ConstraintManager`` and runs at install.
"""

from __future__ import annotations

from repro.analysis.checks.conflicts import check_write_conflicts
from repro.analysis.checks.cycles import check_cycles
from repro.analysis.checks.feasibility import check_feasibility
from repro.analysis.checks.variables import check_variable_safety

#: The battery: (family name, check callable).
ALL_CHECKS = [
    ("variable-safety", check_variable_safety),
    ("cycles", check_cycles),
    ("write-conflicts", check_write_conflicts),
    ("guarantee-feasibility", check_feasibility),
]

__all__ = [
    "ALL_CHECKS",
    "check_variable_safety",
    "check_cycles",
    "check_write_conflicts",
    "check_feasibility",
]
