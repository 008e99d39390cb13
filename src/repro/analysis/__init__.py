"""CM-Lint: static analysis of constraint-management configurations.

The paper's toolkit assumes administrators pick interface/strategy pairs
from a library of proven combinations.  Its one static step, the interface
survey, is not here: ``cm.install`` and ``cm.install_rule`` run it and
raise :class:`~repro.core.errors.ConfigurationError` before a rule is
indexed.  This package checks what that survey, the runtime and the
post-run verdict do not: it builds a static **trigger graph** over a wired
(but not yet run) :class:`~repro.cm.manager.ConstraintManager` — nodes are
installed strategy rules and offered interface rules, edges are template
unifications — and reports unbound rule variables (CM201), unguarded
trigger cycles (CM301), unordered cross-site writers (CM501), and metric
bounds no path can meet (CM601) or that hold only while a guard fires
(CM603), as structured :class:`Diagnostic` findings.

Entry points:

- :func:`lint_manager` — analyze a wired manager; ``verify()`` and
  ``run_report()`` call it;
- ``python -m repro --lint <target>|--all`` — the CLI, over every
  experiment and example script.
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
    build_trigger_graph,
    unify_templates,
)
from repro.analysis.lint import (
    LintContext,
    lint_manager,
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
    "build_trigger_graph",
    "describe_codes",
    "lint_manager",
    "manager_context",
    "run_checks",
    "unify_templates",
]
