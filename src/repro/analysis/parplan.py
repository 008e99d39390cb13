"""Pairwise commutativity analysis and certified parallel phases.

Given one shell's installed rules and their effect summaries
(:mod:`repro.analysis.effects`), this module partitions the rule set into
**certified parallel phases**: groups whose condition+RHS evaluations may
proceed concurrently because every pair's footprints are provably
disjoint (or the overlap is provably benign — blind overwrites to
distinct items commute; overlapping writes do not, since last-writer-wins
order is observable in the trace).

Two effects escape footprint reasoning entirely and force a rule into the
serial **barrier phase**:

- *cross-site sends* — a ``FireMessage`` enqueues on a FIFO channel, so
  reordering two sends reorders the peer's executions; network order must
  follow trace order (CM704);
- *wildcard-family writes* — a write through a ``*``-family template has
  an unbounded footprint, so nothing is provably disjoint from it
  (CM702).

Chained private writes are absorbed first: a rule whose ``W`` step can
trigger another local rule executes that rule's RHS *inline* (the shell's
rule-chaining path), so the triggering rule's effective footprint is the
transitive closure over the local trigger edges — the same unification
the PR-5 trigger graph uses.

The plan also records two facts about LHS conditions:

- ``hoistable`` — rules whose condition reads nothing *any* local rule
  (transitively) writes: its verdict cannot depend on where in a batch it
  is evaluated;
- ``store_free`` — the subset whose condition reads no local data at all.

The plan is *analysis*: the shell's dispatch kernel is serial and consumes
none of it.  Its consumers are CM-Lint (CM701–705 explain rule
interference) and the race sanitizer, which checks every claimed
independence against the accesses a run actually makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.effects import EffectSummary, effect_summary
from repro.analysis.graph import unify_templates
from repro.core.events import EventKind
from repro.core.terms import FAMILY_WILDCARD

#: Barrier reasons (stable strings; the report and CM-Lint reuse them).
REASON_SEND = "cross-site send"
REASON_WILDCARD_WRITE = "wildcard-family write"


@dataclass(frozen=True)
class Conflict:
    """One non-commuting rule pair and the overlapping footprint terms."""

    rule_a: str
    rule_b: str
    #: ``"ww"`` (write-write), ``"wr"``/``"rw"`` (write vs read), with
    #: ``extent=True`` terms marking enumerating-read overlaps.
    kind: str
    term_a: str
    term_b: str
    #: True when the read side of the overlap is a whole-family extent
    #: (an enumerating read) — the CM705 shape.
    enumerating: bool = False

    def to_dict(self) -> dict:
        return {
            "rule_a": self.rule_a,
            "rule_b": self.rule_b,
            "kind": self.kind,
            "term_a": self.term_a,
            "term_b": self.term_b,
            "enumerating": self.enumerating,
        }


@dataclass(frozen=True)
class Phase:
    """One group of rules whose evaluations may proceed concurrently.

    ``barrier=True`` marks the serial phase: its rules are *not* certified
    (cross-site sends, wildcard writes) and run exactly as today.
    """

    rules: tuple[str, ...]
    barrier: bool = False

    def to_dict(self) -> dict:
        return {"rules": list(self.rules), "barrier": self.barrier}


@dataclass(frozen=True)
class ParallelPlan:
    """The certified parallel-phase partition of one shell's rule set."""

    site: str
    phases: tuple[Phase, ...]
    barrier_reasons: dict[str, str] = field(default_factory=dict)
    conflicts: tuple[Conflict, ...] = ()
    hoistable: frozenset = frozenset()
    store_free: frozenset = frozenset()
    summaries: dict[str, EffectSummary] = field(default_factory=dict)
    _phase_of: dict[str, int] = field(default_factory=dict)

    @property
    def certified_pairs(self) -> int:
        """Unordered rule pairs certified independent (same open phase)."""
        return sum(
            len(phase.rules) * (len(phase.rules) - 1) // 2
            for phase in self.phases
            if not phase.barrier
        )

    def phase_of(self, rule_name: str) -> Optional[int]:
        return self._phase_of.get(rule_name)

    def independent(self, a: str, b: str) -> bool:
        """The static claim the race sanitizer checks: were ``a`` and ``b``
        certified to commute (placed in the same non-barrier phase)?"""
        if a == b:
            return False
        index = self._phase_of.get(a)
        if index is None or index != self._phase_of.get(b):
            return False
        return not self.phases[index].barrier

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "phases": [phase.to_dict() for phase in self.phases],
            "certified_pairs": self.certified_pairs,
            "barrier_reasons": dict(self.barrier_reasons),
            "conflicts": [c.to_dict() for c in self.conflicts],
            "hoistable": sorted(self.hoistable),
            "store_free": sorted(self.store_free),
            "fallback_rules": sorted(
                name
                for name, summary in self.summaries.items()
                if summary.fallback
            ),
        }


def _merge(base: EffectSummary, chained: EffectSummary) -> EffectSummary:
    """Absorb a chained rule's effects into the triggering rule's summary."""

    def union(mine, theirs):
        merged = list(mine)
        for term in theirs:
            if term not in merged:
                merged.append(term)
        return tuple(merged)

    return EffectSummary(
        rule=base.rule,
        reads=union(base.reads, chained.reads),
        writes=union(base.writes, chained.writes),
        # The chained rule's condition evaluates mid-RHS, not when the
        # triggering rule's own LHS condition does — so cond_reads (the
        # hoisting gate) stays the triggering rule's own.
        cond_reads=base.cond_reads,
        sends=base.sends or chained.sends,
        reports_failure=base.reports_failure,
        fallback=base.fallback or chained.fallback,
    )


#: One planner input: ``(rule, compiled program or None, sends)``.
PlanEntry = tuple


def shell_entries(shell) -> list[PlanEntry]:
    """The planner inputs for one wired shell's installed rules."""
    return [
        (
            inst.rule,
            inst.program,
            inst.rhs_site is not None and inst.rhs_site != shell.site,
        )
        for inst in shell._index
    ]


def effective_summaries(entries: list[PlanEntry]) -> dict[str, EffectSummary]:
    """Per-rule summaries with chained private writes absorbed to fixpoint.

    A ``W`` step whose template unifies with another local rule's LHS
    executes that rule inline (the shell's rule-chaining path), so the
    triggering rule's effective footprint includes the chained rule's.
    """
    summaries = {
        rule.name: effect_summary(rule, program=program, sends=sends)
        for rule, program, sends in entries
    }
    chains: dict[str, set[str]] = {}
    for rule, __, __sends in entries:
        targets: set[str] = set()
        for step in rule.steps:
            if step.template.kind is not EventKind.WRITE:
                continue
            for other, __p, __s in entries:
                if other.name != rule.name and unify_templates(
                    step.template, other.lhs
                ):
                    targets.add(other.name)
        if targets:
            chains[rule.name] = targets
    changed = bool(chains)
    while changed:
        changed = False
        for name, targets in chains.items():
            current = summaries[name]
            for target in targets:
                merged = _merge(current, summaries[target])
                if merged != current:
                    summaries[name] = current = merged
                    changed = True
    return summaries


def build_parallel_plan(shell) -> ParallelPlan:
    """Partition one wired shell's installed rules into certified phases."""
    return plan_from_entries(shell.site, shell_entries(shell))


def plan_from_entries(site: str, entries: list[PlanEntry]) -> ParallelPlan:
    """Partition a rule set into certified phases (shell-free form, so
    CM-Lint can plan from trigger-graph nodes without a live shell)."""
    summaries = effective_summaries(entries)
    order = [rule.name for rule, __, __s in entries]

    barrier_reasons: dict[str, str] = {}
    for name in order:
        summary = summaries[name]
        if summary.sends:
            barrier_reasons[name] = REASON_SEND
        elif any(t.family == FAMILY_WILDCARD for t in summary.writes):
            barrier_reasons[name] = REASON_WILDCARD_WRITE

    conflicts: list[Conflict] = []
    open_rules = [name for name in order if name not in barrier_reasons]
    conflict_of: dict[tuple[str, str], Conflict] = {}
    for i, a in enumerate(open_rules):
        for b in open_rules[i + 1 :]:
            found = summaries[a].conflicts(summaries[b])
            if found is None:
                continue
            kind, term_a, term_b = found
            read_side = term_b if kind == "wr" else term_a
            conflict = Conflict(
                rule_a=a,
                rule_b=b,
                kind=kind,
                term_a=str(term_a),
                term_b=str(term_b),
                enumerating=kind in ("wr", "rw") and read_side.extent,
            )
            conflicts.append(conflict)
            conflict_of[(a, b)] = conflict

    # Greedy interval coloring in installation order: first phase whose
    # members all commute with the candidate.  Deterministic, and optimal
    # enough — phase count is bounded by the conflict graph's clique size.
    phases: list[list[str]] = []
    phase_of: dict[str, int] = {}
    for name in open_rules:
        placed = False
        for index, members in enumerate(phases):
            if all(
                (m, name) not in conflict_of and (name, m) not in conflict_of
                for m in members
            ):
                members.append(name)
                phase_of[name] = index
                placed = True
                break
        if not placed:
            phase_of[name] = len(phases)
            phases.append([name])

    built = [Phase(rules=tuple(members)) for members in phases]
    if barrier_reasons:
        barrier_index = len(built)
        built.append(
            Phase(rules=tuple(barrier_reasons), barrier=True)
        )
        for name in barrier_reasons:
            phase_of[name] = barrier_index

    # Hoisting gates: a condition is hoistable when nothing any local rule
    # writes (transitively) overlaps what it reads — including the rule's
    # own writes, since an earlier firing of the same rule in the batch
    # writes before a later firing's condition would have run.
    all_writes = [
        term for summary in summaries.values() for term in summary.writes
    ]
    hoistable: set[str] = set()
    store_free: set[str] = set()
    for name in order:
        cond_reads = summaries[name].cond_reads
        if not cond_reads:
            store_free.add(name)
            hoistable.add(name)
            continue
        if not any(
            read.overlaps(write) for read in cond_reads for write in all_writes
        ):
            hoistable.add(name)

    return ParallelPlan(
        site=site,
        phases=tuple(built),
        barrier_reasons=barrier_reasons,
        conflicts=tuple(conflicts),
        hoistable=frozenset(hoistable),
        store_free=frozenset(store_free),
        summaries=summaries,
        _phase_of=phase_of,
    )


__all__ = [
    "Conflict",
    "ParallelPlan",
    "Phase",
    "REASON_SEND",
    "REASON_WILDCARD_WRITE",
    "build_parallel_plan",
    "effective_summaries",
    "plan_from_entries",
    "shell_entries",
]
