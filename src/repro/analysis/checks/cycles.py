"""Unguarded-cycle detection (CM301) over the trigger graph.

A cycle of unconditional edges is a set of rules that, once entered,
re-trigger each other forever.  Within one shell the chain-depth limit
stops it with a ``SpecError``; across sites every hop is a fresh message,
so the run never quiesces and no other check reports it.  A cycle that a
condition guards on some edge terminates as long as the guard converges
(cached propagation's ``cache(n) != b``), and is not reported.

Self-loops are cycles of length one and classify identically.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.diagnostics import diagnostic
from repro.analysis.graph import Edge, TriggerGraph

CHECK = "cycles"


def _sccs(
    node_count: int, edges_of: Callable[[int], list[Edge]]
) -> list[list[int]]:
    """Tarjan's strongly connected components, iteratively.

    Returns only the non-trivial SCCs: size > 1, or a single node with a
    self-edge.
    """
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    result: list[list[int]] = []
    counter = 0

    for root in range(node_count):
        if root in index_of:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            out = edges_of(node)
            while edge_index < len(out):
                succ = out[edge_index].dst
                edge_index += 1
                if succ not in index_of:
                    work[-1] = (node, edge_index)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or any(
                    e.dst == node for e in edges_of(node)
                ):
                    result.append(sorted(component))
            if work:
                parent, __ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result


def _describe(graph: TriggerGraph, members: list[int]) -> str:
    names = [graph.nodes[m].name for m in members]
    sites = sorted({graph.nodes[m].site for m in members})
    return (
        f"{' -> '.join(names)} (site{'s' if len(sites) > 1 else ''} "
        f"{', '.join(sites)})"
    )


def check_cycles(ctx, report) -> None:
    graph: TriggerGraph = ctx.graph

    def unguarded(node: int) -> list[Edge]:
        return [e for e in graph.out_edges(node) if not e.guarded]

    for members in _sccs(len(graph.nodes), unguarded):
        anchor = graph.nodes[members[0]]
        report.add(
            diagnostic(
                "CM301",
                f"unguarded trigger cycle: "
                f"{_describe(graph, members)}; these rules re-trigger "
                f"each other unconditionally",
                site=anchor.site,
                rule=anchor.name,
                check=CHECK,
                hint=(
                    "guard one edge of the cycle with a convergence "
                    "condition (e.g. only propagate when the value "
                    "actually changed)"
                ),
            )
        )
