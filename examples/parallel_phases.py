"""Rule interference analysis and the race sanitizer (CM-Par).

A trading-desk hub ingests postings, quotes, and fills from a legacy
front-office system.  The static effect analysis
(:mod:`repro.analysis.effects` / :mod:`repro.analysis.parplan`) partitions
the hub's rules into **phases** — groups whose condition and RHS
evaluations provably commute — and, on a ``Scenario(sanitize=True)``,
CM-Lint surfaces every pair and rule that is *not* provably independent:

======  =====================================================================
CM701   ``post_journal`` / ``post_trades`` both overwrite the private
        ``BookTotal`` marker: the pair does not commute.
CM702   ``mirror_all`` writes through a family-wildcard template; its
        footprint is unbounded, so nothing is provably disjoint from it.
CM703   ``audit_requests`` cannot be compiled (its RHS emits an ``N``
        event); its effect summary is the AST fallback.
CM704   ``push_rate`` fires across the network; sends must follow trace
        order, so the rule sits in the barrier phase.
CM705   ``scan_positions`` performs an enumerating read over the whole
        ``position`` family, which ``record_fill`` writes.
======  =====================================================================

The shell itself dispatches serially; the plan is analysis.
``sanitize=True`` attaches the dynamic race sanitizer, which checks every
store access of the run against the plan's independence claims.  A clean
run prints ``races: 0`` — the analysis' soundness held.

Run:  python examples/parallel_phases.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import (
    CMRID,
    ConstraintManager,
    InterfaceKind,
    Scenario,
    parse_rule,
    seconds,
)
from repro.core.events import EventKind
from repro.core.rules import RhsStep
from repro.core.templates import Template
from repro.core.terms import FAMILY_WILDCARD, ItemPattern, Var
from repro.ris.legacy import LegacySystem


def _wildcard_mirror_rule():
    """``Ws(intake(n), a, b) -> [0] W(*(n), b)`` — the unbounded-footprint
    rule (CM702).  The DSL cannot spell a wildcard *write* family, so the
    step template is built directly."""
    base = parse_rule(
        "Ws(intake(n), a, b) -> [0] W(Shadow, b)", name="mirror_all"
    )
    wildcard_write = Template(
        EventKind.WRITE,
        ItemPattern(FAMILY_WILDCARD, (Var("n"),)),
        (Var("b"),),
    )
    return replace(base, steps=(RhsStep(wildcard_write),))


def build():
    """Wire the desk: a hub shell with six strategy rules, an annex shell
    owning the downstream rate store."""
    cm = ConstraintManager(Scenario(seed=11, sanitize=True))

    front = LegacySystem("front-office")
    rid_front = (
        CMRID("legacy", "front-office")
        .bind("journal", params=("n",), key_prefix="j:")
        .offer("journal", InterfaceKind.NOTIFY, bound_seconds=1.0)
        .bind("trades", params=("n",), key_prefix="t:")
        .offer("trades", InterfaceKind.NOTIFY, bound_seconds=1.0)
        .bind("quote", params=("n",), key_prefix="q:")
        .offer("quote", InterfaceKind.NOTIFY, bound_seconds=1.0)
        .bind("fill", params=("n",), key_prefix="f:")
        .offer("fill", InterfaceKind.NOTIFY, bound_seconds=1.0)
        .bind("rate", params=("n",), key_prefix="r:")
        .offer("rate", InterfaceKind.NOTIFY, bound_seconds=1.0)
        .bind("audit_req", params=("n",), key_prefix="a:")
        .offer("audit_req", InterfaceKind.NOTIFY, bound_seconds=1.0)
        .bind("position", params=("n",), key_prefix="p:")
        .offer("position", InterfaceKind.READ, bound_seconds=1.0)
        .offer("position", InterfaceKind.WRITE, bound_seconds=1.0)
    )
    cm.site("hub").source(front, rid_front)

    rates = LegacySystem("rate-store")
    rid_rates = (
        CMRID("legacy", "rate-store")
        .bind("remote_rate", params=("n",), key_prefix="rr:")
        .offer("remote_rate", InterfaceKind.WRITE, bound_seconds=1.0)
        .offer("remote_rate", InterfaceKind.NO_SPONTANEOUS_WRITE)
    )
    cm.site("annex").source(rates, rid_rates)

    hub = cm.site("hub").private("BookTotal", "LastQuote")
    # The CM701 pair: both blind-write the shared last-posting marker.
    hub.rule("N(journal(n), b) -> [0] W(BookTotal, b)", name="post_journal")
    hub.rule("N(trades(n), b) -> [0] W(BookTotal, b)", name="post_trades")
    # Commutes with everything open: keyed private writes.
    hub.rule("N(quote(n), b) -> [0] W(LastQuote(n), b)", name="mark_quote")
    # Enumerating read over the whole position family (CM705 vs
    # record_fill's writes).
    hub.rule("N(quote(n), b) -> [0] RR(position(x))", name="scan_positions")
    hub.rule("N(fill(n), b) -> [0] WR(position(n), b)", name="record_fill")
    # Cross-site send: the RHS executes at the annex (CM704).
    hub.rule(
        "N(rate(n), b) -> [0] WR(remote_rate(n), b)",
        "annex",
        name="push_rate",
    )
    hub.rule(_wildcard_mirror_rule())
    # Interpreted fallback: an N emission the compiler rejects (CM703);
    # the desk never writes audit_req, so the rule never fires.
    hub.rule(
        "N(audit_req(n), b) -> [0] N(audit_echo(n), b)",
        name="audit_requests",
    )
    return cm


def build_for_lint():
    """CM-Lint hook: the wired desk (lints with every CM7xx code)."""
    return build()


def main() -> None:
    cm = build()
    scenario = cm.scenario

    feed = [
        ("fill", "ibm", 300.0),
        ("fill", "dec", 120.0),
        ("journal", "posting-1", 410.0),
        ("trades", "trade-7", 385.0),
        ("quote", "ibm", 101.5),
        ("rate", "usd", 1.07),
        ("journal", "posting-2", 425.0),
        ("quote", "dec", 55.25),
    ]
    for index, (family, key, value) in enumerate(feed):
        scenario.sim.at(
            seconds(5 + index * 10),
            lambda f=family, k=key, v=value: cm.spontaneous_write(
                f, (k,), v
            ),
        )
    cm.run(until=seconds(120))

    from repro.analysis import build_parallel_plan, lint_manager

    plan = build_parallel_plan(cm.shell("hub")).to_dict()
    print("interference plan for site 'hub':")
    for index, phase in enumerate(plan["phases"]):
        kind = "barrier" if phase["barrier"] else "open"
        print(f"  phase {index} ({kind}): {', '.join(phase['rules'])}")
    print("provably independent pairs:", plan["certified_pairs"])
    print("barrier reasons:", plan["barrier_reasons"])

    report = scenario.sanitizer.report()
    print(
        f"sanitizer: races: {report['race_count']}  "
        f"(reads={report['reads']}, writes={report['writes']}, "
        f"predicted conflicts serialized by the plan="
        f"{report['predicted_conflicts']})"
    )

    findings = lint_manager(cm)
    codes = sorted(d.code for d in findings.diagnostics)
    print("CM-Lint findings:", ", ".join(codes))


if __name__ == "__main__":
    main()
