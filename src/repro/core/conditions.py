"""Condition expressions for rule left- and right-hand sides.

A condition ``C`` in an interface statement ``E1 ∧ C -> [δ] E2`` or a strategy
step ``C ? E`` is a boolean expression over (a) the variables bound by
matching the triggering event and (b) data items *local to the evaluating
site* (Section 3.2: "the condition C can refer to data at the site of the
right-hand side event only").

Names are resolved the way the paper's notation implies: an identifier is a
rule variable if the matching interpretation binds it, otherwise it is a
local data item (e.g. the CM-Shell cache ``Cx`` in the cached-propagation
strategy).  Parenthesized identifiers like ``cache(n)`` are always local,
parameterized data items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.core.errors import BindingError, SpecError
from repro.core.items import MISSING, DataItemRef, Value
from repro.core.terms import Bindings, ItemPattern, ground_item


class LocalData(Protocol):
    """What a condition may read besides its bindings: local items only."""

    def read_local(self, ref: DataItemRef) -> Value:
        """Current local value of ``ref``; MISSING if it does not exist."""
        ...


class _NoLocalData:
    """Environment for conditions that must not touch local data."""

    def read_local(self, ref: DataItemRef) -> Value:
        raise BindingError(f"no local data available to read {ref}")


#: Environment usable when evaluating conditions with bindings only.
NO_LOCAL_DATA = _NoLocalData()


class Expr:
    """Base class for condition/With expressions."""

    __slots__ = ()

    def variables(self) -> set[str]:
        """Free identifier names (variables-or-items; resolution is dynamic)."""
        return set()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant."""

    value: Value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Name(Expr):
    """An identifier: a bound variable if the bindings define it, else a
    plain (argument-less) local data item."""

    name: str

    def __str__(self) -> str:
        return self.name

    def variables(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class ItemRead(Expr):
    """An explicitly parameterized local data item read, e.g. ``cache(n)``."""

    pattern: ItemPattern

    def __str__(self) -> str:
        return str(self.pattern)

    def variables(self) -> set[str]:
        return self.pattern.variables()


@dataclass(frozen=True)
class Unary(Expr):
    """``-x`` or ``not x``."""

    op: str
    operand: Expr

    def __str__(self) -> str:
        spacer = " " if self.op == "not" else ""
        return f"{self.op}{spacer}{self.operand}"

    def variables(self) -> set[str]:
        return self.operand.variables()


@dataclass(frozen=True)
class Binary(Expr):
    """A binary arithmetic, comparison, or boolean operation."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class Call(Expr):
    """A builtin call: ``abs(x)`` or ``exists(item)``."""

    func: str
    args: tuple[Expr, ...]

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.func}({rendered})"

    def variables(self) -> set[str]:
        found: set[str] = set()
        for arg in self.args:
            found |= arg.variables()
        return found


#: Binary arithmetic operators, shared with the rule compiler
#: (:mod:`repro.core.compile`) so both evaluators agree on semantics.
ARITH_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}

#: Binary comparison operators.  ``==``/``!=`` accept MISSING operands;
#: ordered comparisons against MISSING raise :class:`BindingError` (both
#: evaluators enforce this identically).
COMPARE_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_ARITH = ARITH_OPS
_COMPARE = COMPARE_OPS


def _resolve_operand(expr: Expr, bindings: Bindings, local: LocalData) -> Value:
    """Evaluate a subexpression down to a plain value."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Name):
        if expr.name in bindings:
            return bindings[expr.name]
        if expr.name[0].isupper():
            # The paper's convention: upper-case names are local data items,
            # lower-case names are rule parameters.
            return local.read_local(DataItemRef(expr.name))
        raise BindingError(f"unbound rule variable: {expr.name}")
    if isinstance(expr, ItemRead):
        ref = ground_item(expr.pattern, bindings)
        return local.read_local(ref)
    if isinstance(expr, Unary):
        value = _resolve_operand(expr.operand, bindings, local)
        if expr.op == "-":
            return -value
        if expr.op == "not":
            return not value
        raise SpecError(f"unknown unary operator: {expr.op}")
    if isinstance(expr, Binary):
        if expr.op in ("and", "or"):
            left = _resolve_operand(expr.left, bindings, local)
            if expr.op == "and":
                if not left:
                    return False
                return bool(_resolve_operand(expr.right, bindings, local))
            if left:
                return True
            return bool(_resolve_operand(expr.right, bindings, local))
        left = _resolve_operand(expr.left, bindings, local)
        right = _resolve_operand(expr.right, bindings, local)
        if expr.op in _ARITH:
            return _ARITH[expr.op](left, right)
        if expr.op in _COMPARE:
            if expr.op in ("==", "!="):
                return _COMPARE[expr.op](left, right)
            if left is MISSING or right is MISSING:
                raise BindingError(
                    f"ordered comparison against MISSING in {expr}"
                )
            return _COMPARE[expr.op](left, right)
        raise SpecError(f"unknown binary operator: {expr.op}")
    if isinstance(expr, Call):
        if expr.func == "abs":
            if len(expr.args) != 1:
                raise SpecError("abs() takes exactly one argument")
            return abs(_resolve_operand(expr.args[0], bindings, local))
        if expr.func == "exists":
            if len(expr.args) != 1:
                raise SpecError("exists() takes exactly one argument")
            arg = expr.args[0]
            if isinstance(arg, Name):
                ref = DataItemRef(arg.name)
            elif isinstance(arg, ItemRead):
                ref = ground_item(arg.pattern, bindings)
            else:
                raise SpecError("exists() argument must be a data item")
            return local.read_local(ref) is not MISSING
        raise SpecError(f"unknown function: {expr.func}")
    raise SpecError(f"cannot evaluate expression node: {expr!r}")


def evaluate(expr: Expr, bindings: Bindings, local: LocalData = NO_LOCAL_DATA) -> bool:
    """Evaluate a condition to a boolean.

    ``bindings`` is the matching interpretation from the triggering event;
    ``local`` exposes the evaluating site's data (the CM-Shell private store,
    by default nothing).
    """
    return bool(_resolve_operand(expr, bindings, local))


#: The always-true condition (used when a rule omits its condition).
TRUE = Literal(True)
