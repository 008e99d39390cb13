"""Rule-interference diagnostics (CM7xx).

The static planner (:mod:`repro.analysis.parplan`) partitions each site's
strategy rules into phases of provably independent rules; this check
surfaces what *limits* that independence: non-commuting pairs (CM701),
unbounded wildcard-write footprints (CM702), AST-fallback effect summaries
(CM703), send-forced barriers (CM704), and enumerating-read/write overlaps
(CM705).

The check speaks only when the linted scenario attached the race sanitizer
(``Scenario(sanitize=True)``), the run-time cross-check of the same
analysis; every other configuration's lint snapshot stays unchanged.
"""

from __future__ import annotations

from repro.analysis.diagnostics import diagnostic
from repro.analysis.parplan import (
    REASON_SEND,
    REASON_WILDCARD_WRITE,
    plan_from_entries,
)
from repro.core.compile import compile_rule
from repro.core.errors import CompileError

CHECK = "commutativity"


def _site_plans(ctx):
    """Per site: the plan built from the trigger graph's strategy nodes
    (no live shell needed)."""
    by_site: dict[str, list] = {}
    for node in ctx.graph.strategy_nodes():
        try:
            program = compile_rule(node.rule)
        except CompileError:
            program = None
        by_site.setdefault(node.site, []).append(
            (node.rule, program, node.rhs_site != node.site)
        )
    return {
        site: plan_from_entries(site, entries)
        for site, entries in by_site.items()
    }


def check_commutativity(ctx, report) -> None:
    if not ctx.sanitize:
        return
    for site, plan in sorted(_site_plans(ctx).items()):
        for name, reason in sorted(plan.barrier_reasons.items()):
            if reason == REASON_SEND:
                report.add(
                    diagnostic(
                        "CM704",
                        f"rule {name!r} fires across the network; its "
                        f"phase is the serial barrier (FIFO send order "
                        f"must follow trace order)",
                        site=site,
                        rule=name,
                        check=CHECK,
                        hint="keep send-heavy rules out of hot phases, or "
                        "move the RHS to the LHS site",
                    )
                )
            elif reason == REASON_WILDCARD_WRITE:
                report.add(
                    diagnostic(
                        "CM702",
                        f"rule {name!r} writes through a family-wildcard "
                        f"template; its footprint cannot be bounded, so "
                        f"no pair containing it is certifiable",
                        site=site,
                        rule=name,
                        check=CHECK,
                        hint="name the written family explicitly to bound "
                        "the footprint",
                    )
                )
        for name, summary in sorted(plan.summaries.items()):
            if summary.fallback:
                report.add(
                    diagnostic(
                        "CM703",
                        f"rule {name!r} has no compiled program; its "
                        f"effect summary is the AST fallback (sound but "
                        f"possibly wider)",
                        site=site,
                        rule=name,
                        check=CHECK,
                    )
                )
        for conflict in plan.conflicts:
            overlap = f"{conflict.term_a} vs {conflict.term_b}"
            if conflict.enumerating:
                report.add(
                    diagnostic(
                        "CM705",
                        f"rules {conflict.rule_a!r} and "
                        f"{conflict.rule_b!r} cannot be certified: an "
                        f"enumerating read spans a family the other "
                        f"writes ({overlap})",
                        site=site,
                        rule=conflict.rule_a,
                        check=CHECK,
                        hint=f"overlapping footprint: {overlap}",
                    )
                )
                continue
            report.add(
                diagnostic(
                    "CM701",
                    f"rules {conflict.rule_a!r} and {conflict.rule_b!r} "
                    f"do not commute: {conflict.kind} overlap on {overlap}",
                    site=site,
                    rule=conflict.rule_a,
                    check=CHECK,
                    hint=f"overlapping footprint: {overlap}",
                )
            )
