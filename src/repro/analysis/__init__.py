"""CM-Lint: static analysis of constraint-management configurations.

The paper's toolkit assumes administrators pick interface/strategy pairs
from a library of proven combinations; this package is the mechanized form
of that assumption.  It builds a static **trigger graph** over a wired
(but not yet run) :class:`~repro.cm.manager.ConstraintManager` — nodes are
installed strategy rules and offered interface rules, edges are template
unifications — and runs a battery of checks producing structured
:class:`Diagnostic` findings with stable ``CMxxx`` codes.

Entry points:

- :func:`lint_manager` / :func:`lint_shell` — analyze a wired manager or a
  single shell;
- ``python -m repro --lint <target>|--all`` — the CLI, over every
  experiment and example script;
- ``CMShell.install(..., strict=True)`` — raise on error findings at
  install time.
"""

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    LintReport,
    Severity,
    describe_codes,
)
from repro.analysis.graph import (
    Edge,
    Node,
    TriggerGraph,
    build_shell_graph,
    build_trigger_graph,
    unify_templates,
)
from repro.analysis.lint import (
    LintContext,
    lint_manager,
    lint_shell,
    manager_context,
    run_checks,
)

__all__ = [
    "CODES",
    "Diagnostic",
    "Edge",
    "LintContext",
    "LintReport",
    "Node",
    "Severity",
    "TriggerGraph",
    "build_shell_graph",
    "build_trigger_graph",
    "describe_codes",
    "lint_manager",
    "lint_shell",
    "manager_context",
    "run_checks",
    "unify_templates",
]
