"""Guarantee feasibility (CM6xx): can the installed rules actually meet a
metric guarantee's κ?

For each metric guarantee over families X → Y (``follows``/``leads`` with a
``within`` bound), the check sums worst-case rule δs and channel latencies
along trigger-graph paths from the events that *carry an X change* to the
committed writes of Y:

- a notify interface for X starts a path at cost 0 (the change is pushed);
- a periodic-notify interface, or a periodic strategy rule that reaches a
  read interface for X, starts a path at cost *period* (worst case: the
  change lands right after a poll);
- every rule node on a path contributes its δ, plus the worst-case latency
  of the network hop between its LHS site and its RHS site;
- the path ends when a write interface (or private write) commits Y.

The minimum over all paths is the best bound the configuration can
guarantee.  The estimate is **conservative**: templates are unified, not
executed, so the path set over-approximates runtime behaviour, and every
hop is charged its worst case — a κ the check accepts can still be missed
under failures, but a κ it rejects (CM601) is unachievable even on a
perfect run.  A run checks κ only on the latencies it happened to draw,
so CM601 is the one report of a κ below the worst case.  When every path
within κ passes a guard (CM603), the bound holds only while the guards
fire, which no run that only ever satisfies them shows.

A guarantee with no path at all, or one whose only paths cross a channel
with an unbounded latency model, gets no finding: the former fails the
guarantee check at the first X change, the latter is not decidable here.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

from repro.analysis.diagnostics import diagnostic
from repro.analysis.graph import Edge, Node, TriggerGraph
from repro.core.events import EventKind
from repro.core.interfaces import InterfaceKind
from repro.core.timebase import Ticks, to_seconds

CHECK = "guarantee-feasibility"

_INF = float("inf")


def _node_cost(node: Node, network) -> float:
    """Worst-case ticks this node adds; infinite across a channel whose
    latency model is unbounded."""
    cost: float = node.rule.delay
    if node.site != node.rhs_site:
        model = network._channel_latency.get(
            (node.site, node.rhs_site), network.default_latency
        )
        hop = model.worst_case()
        if hop is None:
            return _INF
        cost += hop
    return cost


def _writers_of(graph: TriggerGraph, family: str) -> list[Node]:
    """Nodes whose execution commits a W on ``family``."""
    writers = []
    for node in graph.nodes:
        if (
            node.kind == "interface"
            and node.iface_kind is InterfaceKind.WRITE
            and node.family == family
        ):
            writers.append(node)
        elif node.kind == "strategy" and any(
            step.template.kind is EventKind.WRITE
            and step.template.item_family == family
            for step in node.rule.steps
        ):
            writers.append(node)
    return writers


def _distances_to(
    graph: TriggerGraph,
    targets: list[Node],
    network,
    keep: Callable[[Edge], bool],
) -> dict[int, float]:
    """Worst-case cost from each node's LHS firing to a committed target
    write, minimized over paths (Dijkstra on the reversed graph)."""
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for target in targets:
        cost = _node_cost(target, network)
        if cost < dist.get(target.index, _INF):
            dist[target.index] = cost
            heapq.heappush(heap, (cost, target.index))
    while heap:
        d, index = heapq.heappop(heap)
        if d > dist.get(index, _INF):
            continue
        for edge in graph.in_edges(index):
            if not keep(edge):
                continue
            pred = graph.nodes[edge.src]
            candidate = d + _node_cost(pred, network)
            if candidate < dist.get(pred.index, _INF):
                dist[pred.index] = candidate
                heapq.heappush(heap, (candidate, pred.index))
    return dist


def _reaches(graph: TriggerGraph, start: int, goal_indices: set[int]) -> bool:
    if start in goal_indices:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for edge in graph.out_edges(node):
            if edge.dst in seen:
                continue
            if edge.dst in goal_indices:
                return True
            seen.add(edge.dst)
            queue.append(edge.dst)
    return False


def _sources_for(graph: TriggerGraph, x_family: str) -> list[tuple[Node, Ticks, bool]]:
    """(node, extra worst-case staleness, source-is-guarded) triples for
    the nodes where an X change enters the rule system."""
    read_indices = {
        node.index
        for node in graph.nodes
        if node.kind == "interface"
        and node.iface_kind is InterfaceKind.READ
        and node.family == x_family
    }
    sources: list[tuple[Node, Ticks, bool]] = []
    for node in graph.nodes:
        if node.kind == "interface" and node.family == x_family:
            if node.iface_kind in (
                InterfaceKind.NOTIFY,
                InterfaceKind.CONDITIONAL_NOTIFY,
            ):
                sources.append(
                    (
                        node,
                        0,
                        node.iface_kind is InterfaceKind.CONDITIONAL_NOTIFY,
                    )
                )
            elif node.iface_kind is InterfaceKind.PERIODIC_NOTIFY:
                sources.append((node, node.period or 0, False))
        elif (
            node.kind == "strategy"
            and node.rule.lhs.kind is EventKind.SPONTANEOUS_WRITE
            and node.rule.lhs.item_family == x_family
        ):
            sources.append((node, 0, False))
        elif (
            node.kind == "strategy"
            and node.period is not None
            and read_indices
            and _reaches(graph, node.index, read_indices)
        ):
            # A poll loop: the X value is observed at most ``period`` after
            # it was written, then flows along the read-response chain.
            sources.append((node, node.period, False))
    return sources


def check_feasibility(ctx, report) -> None:
    graph: TriggerGraph = ctx.graph
    network = ctx.network
    for guarantee in ctx.guarantees:
        x_family = getattr(guarantee, "x_family", None)
        y_family = getattr(guarantee, "y_family", None)
        within = getattr(guarantee, "within", None)
        if x_family is None or y_family is None or within is None:
            continue
        targets = _writers_of(graph, y_family)
        sources = _sources_for(graph, x_family)
        dist_all = _distances_to(graph, targets, network, keep=lambda e: True)
        best = _INF
        for node, extra, __ in sources:
            d = dist_all.get(node.index, _INF)
            if d + extra < best:
                best = d + extra
        if best == _INF:
            continue
        if within < best:
            report.add(
                diagnostic(
                    "CM601",
                    f"guarantee {guarantee.name!r} promises "
                    f"κ={to_seconds(within):g}s, but the best achievable "
                    f"worst-case bound along any delivery path is "
                    f"{to_seconds(int(best)):g}s",
                    check=CHECK,
                    hint=(
                        f"raise κ to at least {to_seconds(int(best)):g}s, "
                        f"or tighten the interface bounds / channel "
                        f"latencies on the path"
                    ),
                )
            )
            continue
        dist_unguarded = _distances_to(
            graph, targets, network, keep=lambda e: not e.guarded
        )
        unguarded_best = _INF
        for node, extra, source_guarded in sources:
            if source_guarded:
                continue
            d = dist_unguarded.get(node.index, _INF)
            if d + extra < unguarded_best:
                unguarded_best = d + extra
        if unguarded_best == _INF:
            report.add(
                diagnostic(
                    "CM603",
                    f"guarantee {guarantee.name!r}: every delivery path "
                    f"within κ is conditionally guarded; the bound holds "
                    f"only when the guards fire",
                    check=CHECK,
                )
            )
