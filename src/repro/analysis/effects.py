"""Static per-rule effect summaries: what a rule may read and write.

Deciding whether two rules' condition+RHS evaluations are independent
needs a proof; this module supplies its first half: a **sound
over-approximation** of every data item a rule's condition may read and
every item its right-hand side may write, plus the two effects that are
not data accesses at all — firing across the network (``sends``) and
standing as a prohibition promise (``reports_failure``).

Soundness contract: the summary may be *wider* than the dynamic footprint
(an ``ANY`` argument where the value is data-dependent, a whole-family
``extent`` term for an enumerating read), never narrower.  The dynamic
race sanitizer (:mod:`repro.analysis.sanitizer`) exists to hold this
module to that contract: any observed access outside the claimed
footprint of a certified-independent pair is a soundness bug here, not a
scheduling bug there.

Summaries are extracted from the rule AST — templates carry the argument
terms the compiled accessor closures have already erased — and
*corroborated* against the compiled program where one exists: the
compiler folds statically-false steps away and decides enumeration
statically, so a compiled rule's step list must be a subset of the AST's.
Rules without a compiled program (``install(compiled=False)`` or a
:class:`~repro.core.errors.CompileError` fallback) are summarized from
the AST alone and flagged ``fallback=True`` (surfaced as CM703).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.compile import CompiledRule
from repro.core.conditions import Binary, Call, Expr, ItemRead, Name, Unary
from repro.core.events import EventKind
from repro.core.rules import Rule
from repro.core.terms import FAMILY_WILDCARD, Const, ItemPattern


class _AnyArg:
    """A footprint argument whose value is unknown statically."""

    _instance: "_AnyArg | None" = None

    def __new__(cls) -> "_AnyArg":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


#: The unknown-argument sentinel: overlaps every concrete value.
ANY = _AnyArg()


@dataclass(frozen=True)
class FootTerm:
    """One footprint term: a set of data items a rule may touch.

    ``args`` holds ground values where the template pins them and
    :data:`ANY` where they are variables or wildcards; ``args=None`` means
    the item shape itself is unknown (nothing can be ruled out).
    ``extent=True`` denotes whole-family access — an enumerating read
    touches every *current* instance, so it overlaps any write to the
    family no matter the arguments.
    """

    family: str
    args: Optional[tuple] = ()
    extent: bool = False

    def __str__(self) -> str:
        if self.extent:
            return f"{self.family}(**)"
        if self.args is None:
            return f"{self.family}(?)"
        if not self.args:
            return self.family
        rendered = ", ".join(
            "*" if a is ANY else repr(a) for a in self.args
        )
        return f"{self.family}({rendered})"

    def overlaps(self, other: "FootTerm") -> bool:
        """May the two terms denote a common data item?

        Disjointness must be *provable*: distinct ground families with
        distinct ground arguments.  Family wildcards, extents, and
        unknown shapes all overlap conservatively.
        """
        if (
            self.family != other.family
            and self.family != FAMILY_WILDCARD
            and other.family != FAMILY_WILDCARD
        ):
            return False
        if self.extent or other.extent:
            return True
        if self.args is None or other.args is None:
            return True
        if len(self.args) != len(other.args):
            # Same family, different arity: distinct items by construction
            # (DataItemRef equality includes the argument tuple).
            return False
        for mine, theirs in zip(self.args, other.args):
            if mine is ANY or theirs is ANY:
                continue
            if mine != theirs:
                return False
        return True


def pattern_term(pattern: ItemPattern, extent: bool = False) -> FootTerm:
    """The footprint term of an item pattern (ground args kept, rest ANY)."""
    args = tuple(
        arg.value if isinstance(arg, Const) else ANY for arg in pattern.args
    )
    return FootTerm(pattern.name, args, extent)


@dataclass(frozen=True)
class EffectSummary:
    """The sound effect summary of one rule.

    ``reads`` covers the LHS condition (binders included — they are
    condition conjuncts), every step condition, and every read request the
    RHS issues; ``writes`` covers W and WR steps.  ``sends`` is True when
    the rule's RHS executes at a peer shell — set by callers that know the
    installed routing, since a bare :class:`Rule` has no ``rhs_site``.
    """

    rule: str
    reads: tuple[FootTerm, ...] = ()
    writes: tuple[FootTerm, ...] = ()
    #: The subset of ``reads`` issued by the LHS condition alone (binders
    #: included).  A condition whose ``cond_reads`` no installed rule
    #: writes gives the same verdict wherever in a batch it is evaluated
    #: (the plan's ``hoistable`` set); one with no reads at all is
    #: ``store_free``.
    cond_reads: tuple[FootTerm, ...] = ()
    #: RHS fires across the network (rhs_site != lhs site).
    sends: bool = False
    #: The rule is a prohibition promise (``E -> FALSE``); firing it is a
    #: no-op at the RHS, but the effect is recorded for completeness.
    reports_failure: bool = False
    #: No compiled program backed the extraction (AST fallback, CM703).
    fallback: bool = False

    def conflicts(self, other: "EffectSummary") -> Optional[tuple]:
        """The first write-write / write-read overlap, or ``None``.

        Returns ``(kind, mine, theirs)`` where kind is ``"ww"``, ``"wr"``
        (my write vs their read) or ``"rw"``.  Two summaries with no such
        overlap commute: each rule's condition reads nothing the other
        writes, and their writes land on provably distinct items (blind
        overwrites to distinct items commute; overlapping writes do not,
        since last-writer-wins order is observable).
        """
        for mine in self.writes:
            for theirs in other.writes:
                if mine.overlaps(theirs):
                    return ("ww", mine, theirs)
            for theirs in other.reads:
                if mine.overlaps(theirs):
                    return ("wr", mine, theirs)
        for mine in self.reads:
            for theirs in other.writes:
                if mine.overlaps(theirs):
                    return ("rw", mine, theirs)
        return None

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "reads": [str(term) for term in self.reads],
            "writes": [str(term) for term in self.writes],
            "cond_reads": [str(term) for term in self.cond_reads],
            "sends": self.sends,
            "reports_failure": self.reports_failure,
            "fallback": self.fallback,
        }


def _expr_reads(expr: Expr, out: list[FootTerm]) -> None:
    """Collect the local data items an expression may read.

    Mirrors the evaluator's resolution rules exactly
    (:func:`repro.core.conditions._resolve_operand`): an upper-case bare
    name is an argument-less local item, a lower-case name is a rule
    variable (no local read), ``item(args)`` and ``exists(item)`` read the
    grounded pattern.
    """
    if isinstance(expr, Name):
        if expr.name[0].isupper():
            out.append(FootTerm(expr.name, ()))
        return
    if isinstance(expr, ItemRead):
        out.append(pattern_term(expr.pattern))
        return
    if isinstance(expr, Unary):
        _expr_reads(expr.operand, out)
        return
    if isinstance(expr, Binary):
        _expr_reads(expr.left, out)
        _expr_reads(expr.right, out)
        return
    if isinstance(expr, Call):
        for arg in expr.args:
            _expr_reads(arg, out)
        return
    # Literals (and any future leaf) read nothing.


_WRITE_KINDS = (EventKind.WRITE, EventKind.WRITE_REQUEST)


def _dedupe(terms: Iterable[FootTerm]) -> tuple[FootTerm, ...]:
    seen: list[FootTerm] = []
    for term in terms:
        if term not in seen:
            seen.append(term)
    return tuple(seen)


def effect_summary(
    rule: Rule,
    *,
    program: Optional[CompiledRule] = None,
    sends: bool = False,
) -> EffectSummary:
    """Extract the sound effect summary of one rule.

    ``program`` is the rule's compiled program when one exists; it
    corroborates the AST extraction (and clears the ``fallback`` flag) but
    the footprint terms always come from the templates, which still carry
    the argument terms the compiled closures have erased.
    """
    cond_reads: list[FootTerm] = []
    writes: list[FootTerm] = []
    for __, binder_expr in rule.binders:
        _expr_reads(binder_expr, cond_reads)
    _expr_reads(rule.condition, cond_reads)
    reads: list[FootTerm] = list(cond_reads)
    lhs_vars = (
        rule.lhs.variables() | {name for name, __ in rule.binders} | {"now"}
    )
    for step in rule.steps:
        tmpl = step.template
        if tmpl.kind is EventKind.FALSE:
            continue
        _expr_reads(step.condition, reads)
        if tmpl.kind in _WRITE_KINDS:
            writes.append(pattern_term(tmpl.item))
        elif tmpl.kind is EventKind.READ_REQUEST:
            enumerating = bool(tmpl.item.variables() - lhs_vars)
            reads.append(pattern_term(tmpl.item, extent=enumerating))
    if program is not None:
        _corroborate(program, writes)
    return EffectSummary(
        rule=rule.name,
        reads=_dedupe(reads),
        writes=_dedupe(writes),
        cond_reads=_dedupe(cond_reads),
        sends=sends,
        reports_failure=rule.is_prohibition,
        fallback=program is None,
    )


def _corroborate(program: CompiledRule, writes: list[FootTerm]) -> None:
    """Check the compiled step list against the AST-derived write set.

    The compiler folds statically-false steps away, so its steps must be a
    *subset* of the AST's; a compiled write on a family the AST walk did
    not record would mean the extraction missed an effect — widen to the
    whole family rather than certify on a provably incomplete summary.
    """
    known = {term.family for term in writes}
    for step in program.steps:
        if step.kind in _WRITE_KINDS and step.family not in known:
            writes.append(FootTerm(step.family, None))
            known.add(step.family)


def shell_effects(shell) -> dict[str, EffectSummary]:
    """Effect summaries for every rule installed at one CM-Shell, keyed by
    rule name, with ``sends`` resolved from the installed routing."""
    summaries: dict[str, EffectSummary] = {}
    for installed in shell._index:
        rhs_site = installed.rhs_site
        summaries[installed.rule.name] = effect_summary(
            installed.rule,
            program=installed.program,
            sends=rhs_site is not None and rhs_site != shell.site,
        )
    return summaries


__all__ = [
    "ANY",
    "EffectSummary",
    "FootTerm",
    "effect_summary",
    "pattern_term",
    "shell_effects",
]
