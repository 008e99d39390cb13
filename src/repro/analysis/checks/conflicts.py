"""Write-write conflict detection (CM5xx) — the static cousin of a race
detector.

Two strategy rules at different sites whose right-hand sides write the same
item family, with no trigger-graph path ordering one after the other, can
interleave arbitrarily at the owning site: per-channel FIFO only orders
messages on one channel, so the final value depends on network timing.  If
one rule (transitively) triggers the other, their firings are causally
ordered and the pair is fine.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.diagnostics import diagnostic
from repro.analysis.graph import Node, TriggerGraph
from repro.core.events import EventKind
from repro.core.terms import FAMILY_WILDCARD

CHECK = "write-conflicts"

_WRITE_KINDS = (EventKind.WRITE_REQUEST, EventKind.WRITE)


def _writers_by_family(graph: TriggerGraph) -> dict[str, list[Node]]:
    writers: dict[str, list[Node]] = {}
    for node in graph.strategy_nodes():
        families = {
            step.template.item_family
            for step in node.rule.steps
            if step.template.kind in _WRITE_KINDS
            and step.template.item_family
            and step.template.item_family != FAMILY_WILDCARD
        }
        for family in families:
            writers.setdefault(family, []).append(node)
    return writers


def _reachable(graph: TriggerGraph, start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for edge in graph.out_edges(node):
            if edge.dst in seen:
                continue
            seen.add(edge.dst)
            queue.append(edge.dst)
    return seen


def check_write_conflicts(ctx, report) -> None:
    graph: TriggerGraph = ctx.graph
    reach_cache: dict[int, set[int]] = {}

    def reaches(a: int, b: int) -> bool:
        if a not in reach_cache:
            reach_cache[a] = _reachable(graph, a)
        return b in reach_cache[a]

    for family, writers in sorted(_writers_by_family(graph).items()):
        if len(writers) < 2:
            continue
        for i, first in enumerate(writers):
            for second in writers[i + 1 :]:
                if first.site == second.site:
                    # Same shell: one event queue processes both firings;
                    # their order is deterministic.
                    continue
                if reaches(first.index, second.index) or reaches(
                    second.index, first.index
                ):
                    continue
                report.add(
                    diagnostic(
                        "CM501",
                        f"rules {first.rule.name!r} (site {first.site}) "
                        f"and {second.rule.name!r} (site {second.site}) "
                        f"both write family {family!r} with no "
                        f"trigger-graph ordering between them; the final "
                        f"value depends on message timing",
                        site=first.site,
                        rule=first.rule.name,
                        check=CHECK,
                        hint=(
                            "route both writes through one owning rule, "
                            "or make one rule trigger the other"
                        ),
                    )
                )
