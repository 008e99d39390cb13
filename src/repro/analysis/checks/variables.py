"""Variable safety (CM2xx): every rule variable a condition or RHS uses
must be bindable before it is needed.

The rule language resolves a lower-case name to a rule variable and an
upper-case name to a local data item.  A lower-case name that neither the
LHS template nor a binder equality binds raises ``BindingError`` at
evaluation time — which the shell treats as "condition not applicable", so
the rule silently never fires.  That is a configuration bug worth an error
at lint time: nothing else reports it, before or after a run.
"""

from __future__ import annotations

from repro.analysis.diagnostics import diagnostic
from repro.analysis.graph import guard_conjuncts
from repro.core.conditions import TRUE, Expr
from repro.core.rules import IMPLICIT_VARIABLES, Rule

CHECK = "variable-safety"


def _lower_vars(expr: Expr) -> set[str]:
    """Names in an expression that resolve as rule variables (lower-case)."""
    return {v for v in expr.variables() if v and v[0].islower()}


def _unbound_in_rule(rule: Rule) -> list[tuple[str, set[str]]]:
    """(context description, unbound variables) pairs for one rule."""
    lhs_vars = rule.lhs.variables() | IMPLICIT_VARIABLES
    binder_vars = {name for name, __ in rule.binders}
    bound = lhs_vars | binder_vars
    problems: list[tuple[str, set[str]]] = []
    for name, expr in rule.binders:
        unbound = _lower_vars(expr) - lhs_vars
        if unbound:
            problems.append((f"binder {name} == {expr}", unbound))
    for guard in guard_conjuncts(rule):
        unbound = _lower_vars(guard) - bound
        if unbound:
            problems.append((f"condition {guard}", unbound))
    for step in rule.steps:
        if step.condition is TRUE:
            continue
        unbound = _lower_vars(step.condition) - bound
        if unbound:
            problems.append((f"step condition {step.condition}", unbound))
    return problems


def check_variable_safety(ctx, report) -> None:
    for node in ctx.graph.strategy_nodes():
        rule = node.rule
        for context, unbound in _unbound_in_rule(rule):
            report.add(
                diagnostic(
                    "CM201",
                    f"rule {rule.name!r}: {context} uses variable(s) "
                    f"{sorted(unbound)} never bound by the LHS template "
                    f"{rule.lhs} or a binder; the rule can never fire",
                    site=node.site,
                    rule=rule.name,
                    check=CHECK,
                    hint=(
                        "bind the variable on the LHS template, add a "
                        "binder conjunct (var == expr), or use an "
                        "upper-case name for a local data item"
                    ),
                )
            )
