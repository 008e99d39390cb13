"""A generic guarantee-formula language and checker (Section 3.3).

The paper's guarantee language builds formulas from ``{Event | Condition} @
TimeVariable`` atoms, predicates, logical connectives, and implicitly
quantified variables: those appearing on the left of ``=>`` are universal,
fresh ones on the right existential.  The specialized checkers in
:mod:`repro.core.guarantees` implement the paper's named guarantee families
with exact interval algebra; this module implements the *language itself*,
generically, so arbitrary guarantees of the paper's shape can be written and
checked — and so the specialized checkers can be cross-validated.

Supported formula shape::

    A1 & A2 & ... & C1 & ...  =>  B1 & B2 & ... & D1 & ...

where each ``Ai``/``Bi`` is a state atom ``(item op value)@t`` or an
existence atom ``E(item)@t``, and each ``Ci``/``Di`` is a time constraint
``t_expr op t_expr`` with ``t_expr ::= tvar | tvar ± seconds | seconds``.
Value positions may be literals or (lower-case) value variables shared
between atoms.

Checking semantics: item values are piecewise-constant, so a formula's truth
can only change at *critical instants* — the items' change points, shifted
by every time offset appearing in the formula (±1 tick for the strict
inequalities).  The checker enumerates universal instantiations over the
critical-instant set and searches existential witnesses over the same set.
This is exact for violations **detectable at critical instants**, which
covers every guarantee family in the paper (their truth regions are finite
unions of intervals with critical-instant endpoints); it is exponential in
the number of atoms, so it is a verification/cross-validation tool, not the
production checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.errors import CheckError
from repro.core.items import MISSING, DataItemRef, Value
from repro.core.timebase import Ticks
from repro.core.trace import ExecutionTrace

_COMPARE = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class TimeExpr:
    """``tvar + offset`` (ticks); ``var=None`` means an absolute time."""

    var: Optional[str]
    offset: Ticks = 0

    def evaluate(self, times: dict[str, Ticks]) -> Ticks:
        """Concrete tick value under the given time-variable bindings."""
        base = 0 if self.var is None else times[self.var]
        return base + self.offset

    def __str__(self) -> str:
        if self.var is None:
            return str(self.offset)
        if self.offset == 0:
            return self.var
        sign = "+" if self.offset > 0 else "-"
        return f"{self.var} {sign} {abs(self.offset)}"


@dataclass(frozen=True)
class StateAtom:
    """``(item op value)@tvar`` — value is a literal or a value variable."""

    item: DataItemRef
    op: str
    value_var: Optional[str] = None  # lower-case variable name...
    value_const: Value = None  # ...or a literal (when value_var is None)
    at: str = "t"

    def __str__(self) -> str:
        value = self.value_var if self.value_var else repr(self.value_const)
        return f"({self.item} {self.op} {value})@{self.at}"


@dataclass(frozen=True)
class ExistsAtom:
    """``E(item)@tvar`` — the item exists (is not MISSING) at the time."""

    item: DataItemRef
    at: str = "t"
    negated: bool = False

    def __str__(self) -> str:
        bang = "!" if self.negated else ""
        return f"{bang}E({self.item})@{self.at}"


@dataclass(frozen=True)
class TimeConstraint:
    """``t_expr op t_expr``."""

    left: TimeExpr
    op: str
    right: TimeExpr

    def holds(self, times: dict[str, Ticks]) -> bool:
        """Whether the constraint is satisfied by the bindings."""
        return _COMPARE[self.op](
            self.left.evaluate(times), self.right.evaluate(times)
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


Atom = StateAtom | ExistsAtom | TimeConstraint


@dataclass(frozen=True)
class GuaranteeFormula:
    """``lhs => rhs``: universally quantified LHS, existential RHS."""

    lhs: tuple[Atom, ...]
    rhs: tuple[Atom, ...]

    def __str__(self) -> str:
        left = " & ".join(str(a) for a in self.lhs)
        right = " & ".join(str(a) for a in self.rhs)
        return f"{left} => {right}"

    def items(self) -> set[DataItemRef]:
        """All data items the formula mentions."""
        found: set[DataItemRef] = set()
        for atom in self.lhs + self.rhs:
            if isinstance(atom, (StateAtom, ExistsAtom)):
                found.add(atom.item)
        return found

    def offsets(self) -> set[Ticks]:
        """All time offsets appearing in the formula's constraints."""
        found: set[Ticks] = {0}
        for atom in self.lhs + self.rhs:
            if isinstance(atom, TimeConstraint):
                found.add(atom.left.offset)
                found.add(atom.right.offset)
        return found


@dataclass
class FormulaViolation:
    """One universal instantiation with no existential witness."""

    times: dict[str, Ticks]
    values: dict[str, Value]

    def __str__(self) -> str:
        times = ", ".join(f"{k}={v}" for k, v in sorted(self.times.items()))
        values = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.values.items())
        )
        return f"violated at [{times}] with [{values}]"


class FormulaChecker:
    """Enumerative checker for :class:`GuaranteeFormula` over a trace."""

    def __init__(self, formula: GuaranteeFormula, max_instantiations: int = 500_000):
        self.formula = formula
        self.max_instantiations = max_instantiations
        self._budget = 0

    # -- critical instants --------------------------------------------------

    def critical_instants(self, trace: ExecutionTrace) -> list[Ticks]:
        """The instants at which the formula's truth can change (see module docstring)."""
        base: set[Ticks] = {0, max(0, trace.horizon - 1)}
        for ref in self.formula.items():
            for time in trace.timeline(ref).change_times():
                base.add(time)
                if time > 0:
                    base.add(time - 1)
        instants: set[Ticks] = set()
        offsets = self.formula.offsets() | {1, -1}
        for point in base:
            for offset in offsets:
                for delta in (-offset, offset):
                    shifted = point + delta
                    if 0 <= shifted <= trace.horizon:
                        instants.add(shifted)
        return sorted(instants)

    # -- checking -------------------------------------------------------------

    def check(
        self, trace: ExecutionTrace, skip_missing: bool = True
    ) -> list[FormulaViolation]:
        """All violated universal instantiations (empty list = valid).

        ``skip_missing`` excludes instantiations that would bind a value
        variable to MISSING, matching the specialized checkers' convention
        that copy guarantees quantify over real values.
        """
        instants = self.critical_instants(trace)
        self._budget = self.max_instantiations
        violations: list[FormulaViolation] = []
        for times, values in self._assignments(
            trace, self.formula.lhs, instants, {}, {}, skip_missing
        ):
            if self._rhs_witness_exists(trace, instants, times, values):
                continue
            violations.append(FormulaViolation(dict(times), dict(values)))
            if len(violations) >= 20:
                break  # enough counterexamples to report
        return violations

    def _assignments(
        self,
        trace: ExecutionTrace,
        atoms: tuple[Atom, ...],
        instants: list[Ticks],
        times: dict[str, Ticks],
        values: dict[str, Value],
        skip_missing: bool,
    ) -> Iterator[tuple[dict[str, Ticks], dict[str, Value]]]:
        if not atoms:
            yield times, values
            return
        head, tail = atoms[0], atoms[1:]
        if isinstance(head, TimeConstraint):
            for name in (head.left.var, head.right.var):
                if name is not None and name not in times:
                    raise CheckError(
                        f"time constraint {head} uses {name!r} before any "
                        f"atom binds it; reorder the formula"
                    )
            if head.holds(times):
                yield from self._assignments(
                    trace, tail, instants, times, values, skip_missing
                )
            return
        if isinstance(head, ExistsAtom):
            candidates = (
                [times[head.at]] if head.at in times else instants
            )
            for time in candidates:
                exists = trace.value_at(head.item, time) is not MISSING
                if exists == (not head.negated):
                    self._budget -= 1
                    if self._budget < 0:
                        raise CheckError(
                            "formula too large to check enumeratively"
                        )
                    yield from self._assignments(
                        trace,
                        tail,
                        instants,
                        {**times, head.at: time},
                        values,
                        skip_missing,
                    )
            return
        if isinstance(head, StateAtom):
            candidates = (
                [times[head.at]] if head.at in times else instants
            )
            for time in candidates:
                actual = trace.value_at(head.item, time)
                if skip_missing and actual is MISSING:
                    continue
                if head.value_var is not None:
                    if head.value_var in values:
                        expected = values[head.value_var]
                        if not self._compare(head.op, actual, expected):
                            continue
                        new_values = values
                    else:
                        if head.op not in ("=", "=="):
                            raise CheckError(
                                f"atom {head}: an unbound value variable "
                                f"needs the '=' operator to bind"
                            )
                        new_values = {**values, head.value_var: actual}
                else:
                    if not self._compare(head.op, actual, head.value_const):
                        continue
                    new_values = values
                self._budget -= 1
                if self._budget < 0:
                    raise CheckError("formula too large to check enumeratively")
                yield from self._assignments(
                    trace,
                    tail,
                    instants,
                    {**times, head.at: time},
                    new_values,
                    skip_missing,
                )
            return
        raise CheckError(f"unknown atom type: {head!r}")

    @staticmethod
    def _compare(op: str, left: Value, right: Value) -> bool:
        if op in ("=", "==", "!="):
            return _COMPARE[op](left, right)
        if left is MISSING or right is MISSING:
            return False
        return _COMPARE[op](left, right)

    def _rhs_witness_exists(
        self,
        trace: ExecutionTrace,
        instants: list[Ticks],
        times: dict[str, Ticks],
        values: dict[str, Value],
    ) -> bool:
        # Existential witnesses live in intervals whose endpoints are shifted
        # versions of the *bound* universal times (e.g. t2 in (t1 - κ, t1)),
        # so candidate instants must also include shifts of those bindings —
        # the global critical-instant set alone is not closed under the
        # combination of shifts.
        candidates = set(instants)
        offsets = self.formula.offsets() | {0}
        for bound_time in times.values():
            for offset in offsets:
                for delta in (-offset, offset):
                    for nudge in (-1, 0, 1):
                        shifted = bound_time + delta + nudge
                        if 0 <= shifted <= trace.horizon:
                            candidates.add(shifted)
        extended = sorted(candidates)
        for __ in self._assignments(
            trace, self.formula.rhs, extended, dict(times), dict(values), False
        ):
            return True
        return False
