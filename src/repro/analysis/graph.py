"""The static trigger graph CM-Lint analyzes.

Nodes are rules: the strategy rules installed in each CM-Shell plus the
interface rules each translator's source offers (a write interface *is* the
rule ``WR(X, b) ->[δ] W(X, b)``; modelling it as a node lets one edge
relation cover the whole event flow ``Ws → N → strategy → WR → W``).

There is an edge A → B when some right-hand-side event template of A can
*unify* with B's left-hand-side template — i.e. some ground event could be
produced by A and trigger B.  Unification is decided purely on templates
(:func:`unify_templates`): no events are executed, so the graph is a sound
over-approximation of the runtime trigger relation (every runtime trigger
is an edge; an edge need not ever fire).

Edges record whether they are *guarded* — the producing step or the
consuming rule carries a condition beyond its binder equalities — and
whether they are *echo* edges: a committed write ``W(X)`` at a source that
offers a notify interface re-entering the rule system as if it were a
spontaneous write.  Echo edges are real only when a translator fails to
suppress its own writes (the echo-ablation failure mode), so cycle
detection treats them as a separate, weaker class.

Construction is near-linear in the rule count: candidate consumers are
looked up in a ``(kind, family)`` bucket index — the static twin of the
dispatcher's :class:`~repro.cm.dispatch.RuleIndex` — rather than by
scanning all node pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.conditions import TRUE, Binary, Expr, Name
from repro.core.events import EventKind
from repro.core.interfaces import InterfaceKind, InterfaceSpec
from repro.core.rules import Rule, RuleRole
from repro.core.templates import Template
from repro.core.terms import FAMILY_WILDCARD, Const, Term
from repro.core.timebase import Ticks


def _terms_unify(a: Term, b: Term) -> bool:
    """Whether two template terms admit a common ground value.

    Variables and wildcards unify with anything; two constants unify only
    when equal.  Repeated-variable consistency is ignored, which can only
    add edges (the graph stays an over-approximation).
    """
    if isinstance(a, Const) and isinstance(b, Const):
        return a.value == b.value
    return True


def unify_templates(a: Template, b: Template) -> bool:
    """Whether some ground event descriptor matches both templates."""
    if a.kind is EventKind.FALSE or b.kind is EventKind.FALSE:
        return False
    if a.kind is not b.kind:
        return False
    if (a.item is None) != (b.item is None):
        return False
    if a.item is not None and b.item is not None:
        if (
            a.item.name != b.item.name
            and a.item.name != FAMILY_WILDCARD
            and b.item.name != FAMILY_WILDCARD
        ):
            return False
        if len(a.item.args) != len(b.item.args):
            return False
        for ta, tb in zip(a.item.args, b.item.args):
            if not _terms_unify(ta, tb):
                return False
    if len(a.values) != len(b.values):
        return False
    for ta, tb in zip(a.values, b.values):
        if not _terms_unify(ta, tb):
            return False
    return True


def guard_conjuncts(rule: Rule) -> list[Expr]:
    """The rule condition's conjuncts that actually *guard* firing.

    Binder equalities (``b == X``: capture a value into a fresh variable)
    always succeed once evaluable, so they are not guards; everything else
    in the LHS condition is.
    """
    binder_vars = {name for name, __ in rule.binders}
    lhs_vars = rule.lhs.variables()
    guards: list[Expr] = []

    def walk(expr: Expr) -> None:
        if isinstance(expr, Binary) and expr.op == "and":
            walk(expr.left)
            walk(expr.right)
            return
        if isinstance(expr, Binary) and expr.op == "==":
            for side in (expr.left, expr.right):
                if (
                    isinstance(side, Name)
                    and side.name in binder_vars
                    and side.name not in lhs_vars
                ):
                    return  # a binder conjunct, not a guard
        guards.append(expr)

    if rule.condition is not TRUE:
        walk(rule.condition)
    return guards


@dataclass(frozen=True)
class Node:
    """One trigger-graph node: a rule, where it runs, and its provenance."""

    index: int
    rule: Rule
    #: Site whose shell processes the LHS event.
    site: str
    #: Site where the RHS executes (differs from ``site`` for cross-site
    #: strategy rules; the network hop between them is what guarantee
    #: feasibility charges for).
    rhs_site: str
    #: ``"strategy"`` or ``"interface"``.
    kind: str
    #: For interface nodes: which menu entry this rule is.
    iface_kind: Optional[InterfaceKind] = None
    #: For interface nodes: the family the interface is offered for.
    family: Optional[str] = None
    #: For periodic-notify interfaces and periodic strategy rules: the
    #: timer period (worst-case extra staleness a feasibility path pays).
    period: Optional[Ticks] = None
    #: The strategy or source this rule came from (display provenance).
    origin: str = ""

    @property
    def name(self) -> str:
        return self.rule.name

    def __str__(self) -> str:
        return f"{self.kind}:{self.rule.name}@{self.site}"


@dataclass(frozen=True)
class Edge:
    """A may-trigger edge: an RHS template of ``src`` unifies with the LHS
    template of ``dst``."""

    src: int
    dst: int
    #: The RHS template of the source rule that produces the linking event.
    template: Template
    #: True when the producing step or the consuming rule is conditional.
    guarded: bool
    #: Human-readable guard (empty when unguarded).
    guard: str = ""
    #: True for write→spontaneous-write echo edges (only real when a
    #: translator leaks its own writes back as notifications).
    echo: bool = False

    def __str__(self) -> str:
        marker = " [echo]" if self.echo else ""
        guard = f" when {self.guard}" if self.guard else ""
        return f"{self.src} -> {self.dst} via {self.template}{guard}{marker}"


class TriggerGraph:
    """The static trigger graph over a set of rule nodes."""

    def __init__(self, nodes: list[Node], edges: list[Edge]) -> None:
        self.nodes = nodes
        self.edges = edges
        self._out: list[list[Edge]] = [[] for __ in nodes]
        self._in: list[list[Edge]] = [[] for __ in nodes]
        for edge in edges:
            self._out[edge.src].append(edge)
            self._in[edge.dst].append(edge)

    def out_edges(self, index: int) -> list[Edge]:
        return self._out[index]

    def in_edges(self, index: int) -> list[Edge]:
        return self._in[index]

    def successors(self, index: int, *, echo: bool = True) -> list[int]:
        return [
            e.dst for e in self._out[index] if echo or not e.echo
        ]

    def strategy_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "strategy"]

    def interface_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "interface"]

    def __len__(self) -> int:
        return len(self.nodes)

    def describe(self) -> str:
        """Multi-line listing (debugging aid, exercised by the tests)."""
        lines = [f"trigger graph: {len(self.nodes)} nodes, "
                 f"{len(self.edges)} edges"]
        for node in self.nodes:
            lines.append(f"  [{node.index}] {node}: {node.rule}")
            for edge in self._out[node.index]:
                lines.append(f"       -> [{edge.dst}] "
                             f"{self.nodes[edge.dst].name}"
                             + (" [echo]" if edge.echo else "")
                             + (f" when {edge.guard}" if edge.guard else ""))
        return "\n".join(lines)


@dataclass
class _NodeDraft:
    rule: Rule
    site: str
    rhs_site: str
    kind: str
    iface_kind: Optional[InterfaceKind] = None
    family: Optional[str] = None
    period: Optional[Ticks] = None
    origin: str = ""


def _period_of(rule: Rule) -> Optional[Ticks]:
    if rule.lhs.kind is EventKind.PERIODIC and isinstance(
        rule.lhs.values[0], Const
    ):
        return rule.lhs.values[0].value
    return None


def _spec_draft(spec: InterfaceSpec, site: str, origin: str) -> _NodeDraft:
    return _NodeDraft(
        rule=spec.rule,
        site=site,
        rhs_site=site,
        kind="interface",
        iface_kind=spec.kind,
        family=spec.family,
        period=spec.period,
        origin=origin,
    )


#: Interface kinds that turn a spontaneous write into a notification.
NOTIFY_KINDS = (
    InterfaceKind.NOTIFY,
    InterfaceKind.CONDITIONAL_NOTIFY,
    InterfaceKind.PERIODIC_NOTIFY,
)


def _build(drafts: list[_NodeDraft]) -> TriggerGraph:
    nodes = [
        Node(
            index=i,
            rule=d.rule,
            site=d.site,
            rhs_site=d.rhs_site,
            kind=d.kind,
            iface_kind=d.iface_kind,
            family=d.family,
            period=d.period if d.period is not None else _period_of(d.rule),
            origin=d.origin,
        )
        for i, d in enumerate(drafts)
    ]

    # Bucket consumers by their LHS (kind, family) discriminator, the same
    # pre-filter the runtime dispatcher uses; None keys collect the
    # family-wildcard and item-less templates that any event of the kind
    # could reach.
    buckets: dict[tuple[EventKind, Optional[str]], list[Node]] = {}
    by_kind: dict[EventKind, list[Node]] = {}
    for node in nodes:
        lhs = node.rule.lhs
        buckets.setdefault((lhs.kind, lhs.dispatch_family), []).append(node)
        by_kind.setdefault(lhs.kind, []).append(node)
    guards = {node.index: guard_conjuncts(node.rule) for node in nodes}

    def consumers(template: Template) -> Iterable[Node]:
        kind = template.kind
        family = (
            template.item.name if template.item is not None else None
        )
        if family == FAMILY_WILDCARD:
            return by_kind.get(kind, [])
        candidates = list(buckets.get((kind, family), []))
        if family is not None:
            candidates.extend(buckets.get((kind, None), []))
        return candidates

    edges: list[Edge] = []
    seen: set[tuple[int, int, bool]] = set()
    for node in nodes:
        for step in node.rule.steps:
            template = step.template
            if template.kind is EventKind.FALSE:
                continue
            step_guarded = step.condition is not TRUE
            for target in consumers(template):
                if not unify_templates(template, target.rule.lhs):
                    continue
                key = (node.index, target.index, False)
                if key in seen:
                    continue
                seen.add(key)
                target_guards = guards[target.index]
                guarded = step_guarded or bool(target_guards)
                parts = []
                if step_guarded:
                    parts.append(str(step.condition))
                parts.extend(str(g) for g in target_guards)
                edges.append(
                    Edge(
                        src=node.index,
                        dst=target.index,
                        template=template,
                        guarded=guarded,
                        guard=" and ".join(parts),
                    )
                )

    # Echo edges: a committed write W(F) at a source offering a notify
    # interface *would* re-enter as Ws(F) -> N(F) if the translator failed
    # to suppress its own writes.  Sourced from write-interface nodes (the
    # only legal producers of W on database families).
    notify_by_family: dict[str, list[Node]] = {}
    for node in nodes:
        if node.kind == "interface" and node.iface_kind in NOTIFY_KINDS:
            assert node.family is not None
            notify_by_family.setdefault(node.family, []).append(node)
    for node in nodes:
        if node.kind != "interface" or node.iface_kind is not (
            InterfaceKind.WRITE
        ):
            continue
        for target in notify_by_family.get(node.family or "", []):
            key = (node.index, target.index, True)
            if key in seen:
                continue
            seen.add(key)
            target_guards = guards[target.index]
            for step in node.rule.steps:
                if step.template.kind is EventKind.WRITE:
                    echo_template = step.template
                    break
            else:  # pragma: no cover - write interfaces always emit W
                continue
            edges.append(
                Edge(
                    src=node.index,
                    dst=target.index,
                    template=echo_template,
                    guarded=bool(target_guards),
                    guard=" and ".join(str(g) for g in target_guards),
                    echo=True,
                )
            )
    return TriggerGraph(nodes, edges)


def build_trigger_graph(cm) -> TriggerGraph:
    """The trigger graph of a fully wired
    :class:`~repro.cm.manager.ConstraintManager`."""
    drafts: list[_NodeDraft] = []
    strategy_origin: dict[str, str] = {}
    for installed in getattr(cm, "installed", []):
        for rule in installed.strategy.rules:
            strategy_origin[rule.name] = installed.strategy.name
    for site, shell in cm.shells.items():
        for installed_rule in shell._index:
            rule = installed_rule.rule
            drafts.append(
                _NodeDraft(
                    rule=rule,
                    site=site,
                    rhs_site=installed_rule.rhs_site or site,
                    kind=(
                        "interface"
                        if rule.role is RuleRole.INTERFACE
                        else "strategy"
                    ),
                    origin=strategy_origin.get(rule.name, ""),
                )
            )
        seen: set[int] = set()
        for translator in shell.translators.values():
            if id(translator) in seen:
                continue
            seen.add(id(translator))
            for spec in translator.offered_interfaces().specs:
                drafts.append(
                    _spec_draft(spec, site, translator.source.name)
                )
    return _build(drafts)


def build_shell_graph(shell) -> TriggerGraph:
    """The trigger graph visible from a single CM-Shell.

    Covers the shell's installed rules and its local translators'
    interfaces; rules whose RHS runs at a remote site still appear (the
    remote consumers simply are not in view).
    """
    drafts: list[_NodeDraft] = []
    for installed_rule in shell._index:
        rule = installed_rule.rule
        drafts.append(
            _NodeDraft(
                rule=rule,
                site=shell.site,
                rhs_site=installed_rule.rhs_site or shell.site,
                kind=(
                    "interface"
                    if rule.role is RuleRole.INTERFACE
                    else "strategy"
                ),
            )
        )
    seen: set[int] = set()
    for translator in shell.translators.values():
        if id(translator) in seen:
            continue
        seen.add(id(translator))
        for spec in translator.offered_interfaces().specs:
            drafts.append(_spec_draft(spec, shell.site, translator.source.name))
    return _build(drafts)
