"""Install-time compilation of rules into flat executable programs.

The CM-Shell's inner loop — match ``E1 ∧ C →δ E2``, bind, evaluate
conditions, emit RHS events — used to tree-walk the rule's ASTs on every
firing: :func:`~repro.core.conditions.evaluate` re-dispatched on node types,
:func:`~repro.core.terms.ground_term` re-resolved every item and value term,
and each RHS step copied the bindings dict just to add ``now``.  Active-rule
systems get their throughput from compiling rules into executable programs
once, at installation, and running *those* per event; this module does the
same for the paper's rule language:

- the LHS template becomes a **slot matcher**: the rule's variables are
  assigned fixed integer slots (LHS template variables by first occurrence,
  then binder variables, then the implicit ``now``), and matching fills a
  flat list by position — no dict allocation, no per-term closure dispatch;
- binder expressions, the LHS condition, and every RHS step condition are
  compiled into closures over ``(slots, local)`` with **constant
  subexpressions folded** at compile time (a condition that folds to true
  disappears from the program entirely; a step whose condition folds to
  false is dropped);
- local-data reads (``X``, ``cache(n)``) are routed through
  **pre-resolved accessors**: the :class:`~repro.core.items.DataItemRef` is
  built once at compile time whenever the pattern is ground;
- each RHS step's event template becomes an emission plan — a kind tag, a
  ``make_ref`` closure (a constant when the pattern is ground), and a
  ``make_value`` closure (a slot read or a constant) — and whether a read
  request is an *enumerating* read is decided statically, since the set of
  bound variables is fixed by the rule's shape;
- the per-step ``dict(bindings)`` copy is gone: ``now`` has a dedicated
  slot written once per firing, and RHS steps never bind anything new.

The compiled program is the shell's only executor.  The tree-walking
``evaluate()``/``match_desc``/``instantiate`` evaluator remains the
specification: randomized equivalence tests (``tests/core/test_compile.py``)
hold the compiled programs to it, exceptions included.  A rule the compiler
cannot specialize raises :class:`~repro.core.errors.CompileError`, a
:class:`~repro.core.errors.SpecError`, when the shell installs it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.conditions import (
    ARITH_OPS,
    COMPARE_OPS,
    Binary,
    Call,
    Expr,
    ItemRead,
    Literal,
    LocalData,
    Name,
    Unary,
)
from repro.core.errors import BindingError, CompileError
from repro.core.events import EventKind
from repro.core.items import MISSING, DataItemRef, Value
from repro.core.rules import Rule
from repro.core.templates import Template
from repro.core.terms import (
    FAMILY_WILDCARD,
    WILDCARD,
    Const,
    ItemPattern,
    Term,
    Var,
)

#: A compiled expression: slot list and local data in, value out.  May raise
#: :class:`BindingError`/:class:`TypeError` exactly where the tree-walking
#: evaluator would (the shell treats both as "rule not applicable").
ValueFn = Callable[[list, LocalData], Value]

#: A compiled slot matcher: ground descriptor in, slot list (or ``None``) out.
SlotMatcher = Callable[[object], Optional[list]]

#: RHS event kinds the compiler knows how to emit.  Anything else is a
#: :class:`CompileError` at install: no shell can generate it.
_EMITTABLE = (
    EventKind.WRITE_REQUEST,
    EventKind.READ_REQUEST,
    EventKind.WRITE,
)


class CompiledStep:
    """One RHS step's emission plan (``Ci ? Ei`` with everything resolved)."""

    __slots__ = ("kind", "condition", "make_ref", "make_value",
                 "enumerating", "family")

    def __init__(
        self,
        kind: EventKind,
        condition: Optional[ValueFn],
        make_ref: Optional[Callable[[list], DataItemRef]],
        make_value: Optional[Callable[[list], Value]],
        enumerating: bool,
        family: Optional[str],
    ):
        self.kind = kind
        #: ``None`` means the condition folded to a constant true.
        self.condition = condition
        self.make_ref = make_ref
        self.make_value = make_value
        #: Statically decided: a read request whose item pattern mentions
        #: variables the rule never binds expands over the whole family.
        self.enumerating = enumerating
        self.family = family


class CompiledRule:
    """A rule compiled into a flat program: matcher, LHS check, RHS plan."""

    __slots__ = ("rule", "slot_names", "now_slot", "match", "lhs", "steps")

    def __init__(
        self,
        rule: Rule,
        slot_names: tuple[str, ...],
        now_slot: int,
        match: SlotMatcher,
        lhs: Optional[ValueFn],
        steps: tuple[CompiledStep, ...],
    ):
        self.rule = rule
        #: Slot layout, for introspection and the equivalence tests.
        self.slot_names = slot_names
        self.now_slot = now_slot
        #: Descriptor -> fresh slot list (or None on mismatch).
        self.match = match
        #: Binder evaluation + LHS condition; ``None`` when the condition
        #: folded to true and the rule has no binders.
        self.lhs = lhs
        self.steps = steps


# -- expression compilation ---------------------------------------------------

#: Marker for a compile-time constant: ``(True, value)`` vs ``(False, fn)``.
_Compiled = tuple[bool, object]


def _const(value: object) -> _Compiled:
    return (True, value)


def _fn(fn: ValueFn) -> _Compiled:
    return (False, fn)


def _as_fn(compiled: _Compiled) -> ValueFn:
    is_const, payload = compiled
    if is_const:
        value = payload
        return lambda slots, local: value
    return payload  # type: ignore[return-value]


def _compile_expr(expr: Expr, slot_of: dict[str, int]) -> _Compiled:
    """Compile one expression; folds subtrees whose value is static."""
    if isinstance(expr, Literal):
        return _const(expr.value)
    if isinstance(expr, Name):
        name = expr.name
        if name in slot_of:
            index = slot_of[name]
            return _fn(lambda slots, local: slots[index])
        if name[0].isupper():
            ref = DataItemRef(name)
            return _fn(lambda slots, local: local.read_local(ref))

        def unbound(slots: list, local: LocalData) -> Value:
            raise BindingError(f"unbound rule variable: {name}")

        return _fn(unbound)
    if isinstance(expr, ItemRead):
        make_ref = _compile_item_ref(expr.pattern, slot_of)
        return _fn(lambda slots, local: local.read_local(make_ref(slots)))
    if isinstance(expr, Unary):
        return _compile_unary(expr, slot_of)
    if isinstance(expr, Binary):
        return _compile_binary(expr, slot_of)
    if isinstance(expr, Call):
        return _compile_call(expr, slot_of)
    raise CompileError(f"cannot compile expression node: {expr!r}")


def _compile_unary(expr: Unary, slot_of: dict[str, int]) -> _Compiled:
    operand = _compile_expr(expr.operand, slot_of)
    if expr.op == "-":
        if operand[0]:
            try:
                return _const(-operand[1])  # type: ignore[operator]
            except Exception:
                pass  # fold failed: evaluate (and raise) at run time
        operand_fn = _as_fn(operand)
        return _fn(lambda slots, local: -operand_fn(slots, local))
    if expr.op == "not":
        if operand[0]:
            return _const(not operand[1])
        operand_fn = _as_fn(operand)
        return _fn(lambda slots, local: not operand_fn(slots, local))
    raise CompileError(f"unknown unary operator: {expr.op}")


def _compile_binary(expr: Binary, slot_of: dict[str, int]) -> _Compiled:
    op = expr.op
    left = _compile_expr(expr.left, slot_of)
    if op in ("and", "or"):
        # Reference semantics: short-circuit, and always return a bool
        # (False on a falsy left of ``and``, not the left value itself).
        right = _compile_expr(expr.right, slot_of)
        if left[0]:
            if op == "and":
                if not left[1]:
                    return _const(False)
                if right[0]:
                    return _const(bool(right[1]))
                right_fn = _as_fn(right)
                return _fn(lambda slots, local: bool(right_fn(slots, local)))
            if left[1]:
                return _const(True)
            if right[0]:
                return _const(bool(right[1]))
            right_fn = _as_fn(right)
            return _fn(lambda slots, local: bool(right_fn(slots, local)))
        left_fn = _as_fn(left)
        right_fn = _as_fn(right)
        if op == "and":
            return _fn(
                lambda slots, local: bool(right_fn(slots, local))
                if left_fn(slots, local)
                else False
            )
        return _fn(
            lambda slots, local: True
            if left_fn(slots, local)
            else bool(right_fn(slots, local))
        )
    right = _compile_expr(expr.right, slot_of)
    if op in ARITH_OPS:
        arith = ARITH_OPS[op]
        if left[0] and right[0]:
            try:
                return _const(arith(left[1], right[1]))
            except Exception:
                pass
        left_fn, right_fn = _as_fn(left), _as_fn(right)
        return _fn(
            lambda slots, local: arith(
                left_fn(slots, local), right_fn(slots, local)
            )
        )
    if op in COMPARE_OPS:
        compare = COMPARE_OPS[op]
        if op in ("==", "!="):
            if left[0] and right[0]:
                return _const(compare(left[1], right[1]))
            left_fn, right_fn = _as_fn(left), _as_fn(right)
            return _fn(
                lambda slots, local: compare(
                    left_fn(slots, local), right_fn(slots, local)
                )
            )
        rendered = str(expr)
        if left[0] and right[0]:
            if left[1] is not MISSING and right[1] is not MISSING:
                try:
                    return _const(compare(left[1], right[1]))
                except Exception:
                    pass
        left_fn, right_fn = _as_fn(left), _as_fn(right)

        def ordered(slots: list, local: LocalData) -> Value:
            a = left_fn(slots, local)
            b = right_fn(slots, local)
            if a is MISSING or b is MISSING:
                raise BindingError(
                    f"ordered comparison against MISSING in {rendered}"
                )
            return compare(a, b)

        return _fn(ordered)
    raise CompileError(f"unknown binary operator: {op}")


def _compile_call(expr: Call, slot_of: dict[str, int]) -> _Compiled:
    if expr.func == "abs":
        if len(expr.args) != 1:
            raise CompileError("abs() takes exactly one argument")
        arg = _compile_expr(expr.args[0], slot_of)
        if arg[0]:
            try:
                return _const(abs(arg[1]))  # type: ignore[arg-type]
            except Exception:
                pass
        arg_fn = _as_fn(arg)
        return _fn(lambda slots, local: abs(arg_fn(slots, local)))
    if expr.func == "exists":
        if len(expr.args) != 1:
            raise CompileError("exists() takes exactly one argument")
        target = expr.args[0]
        if isinstance(target, Name):
            ref = DataItemRef(target.name)
            return _fn(
                lambda slots, local: local.read_local(ref) is not MISSING
            )
        if isinstance(target, ItemRead):
            make_ref = _compile_item_ref(target.pattern, slot_of)
            return _fn(
                lambda slots, local: local.read_local(make_ref(slots))
                is not MISSING
            )
        raise CompileError("exists() argument must be a data item")
    raise CompileError(f"unknown function: {expr.func}")


def _compile_item_ref(
    pattern: ItemPattern, slot_of: dict[str, int]
) -> Callable[[list], DataItemRef]:
    """Pre-resolve an item pattern into a ``slots -> DataItemRef`` accessor.

    Ground patterns resolve to a constant reference at compile time; a
    pattern the rule can never ground (wildcard argument, unbound variable,
    family wildcard) becomes an accessor that raises :class:`BindingError`
    exactly as :func:`~repro.core.terms.ground_item` would.
    """
    if pattern.name == FAMILY_WILDCARD:
        def unresolvable_family(slots: list) -> DataItemRef:
            raise BindingError("cannot ground a family-wildcard item pattern")

        return unresolvable_family
    getters: list[tuple[bool, object]] = []  # (is_slot, index_or_value)
    failure: Optional[str] = None
    for term in pattern.args:
        if term is WILDCARD:
            failure = "cannot ground a wildcard term"
            break
        if isinstance(term, Const):
            getters.append((False, term.value))
        elif isinstance(term, Var):
            if term.name not in slot_of:
                failure = f"unbound variable: {term.name}"
                break
            getters.append((True, slot_of[term.name]))
        else:
            raise CompileError(f"not a groundable term: {term!r}")
    if failure is not None:
        message = failure

        def unresolvable(slots: list) -> DataItemRef:
            raise BindingError(message)

        return unresolvable
    name = pattern.name
    if not getters:
        ref = DataItemRef(name)
        return lambda slots: ref
    if all(not is_slot for is_slot, __ in getters):
        ref = DataItemRef(name, tuple(value for __, value in getters))
        return lambda slots: ref
    if len(getters) == 1:
        index = getters[0][1]
        return lambda slots: DataItemRef(name, (slots[index],))
    plan = tuple(getters)
    return lambda slots: DataItemRef(
        name,
        tuple(
            slots[payload] if is_slot else payload for is_slot, payload in plan
        ),
    )


def _compile_value_term(
    term: Term, slot_of: dict[str, int]
) -> Callable[[list], Value]:
    """A value term of an RHS template: a slot read or a constant."""
    if term is WILDCARD:
        def unresolvable(slots: list) -> Value:
            raise BindingError("cannot ground a wildcard term")

        return unresolvable
    if isinstance(term, Const):
        value = term.value
        return lambda slots: value
    if isinstance(term, Var):
        if term.name not in slot_of:
            message = f"unbound variable: {term.name}"

            def unbound(slots: list) -> Value:
                raise BindingError(message)

            return unbound
        index = slot_of[term.name]
        return lambda slots: slots[index]
    raise CompileError(f"not a groundable term: {term!r}")


# -- LHS matcher compilation --------------------------------------------------


def _compile_slot_matcher(
    tmpl: Template, slot_of: dict[str, int], n_slots: int
) -> SlotMatcher:
    """Compile the LHS template into a slot-filling matcher.

    Semantically identical to running the template's
    :func:`~repro.core.templates.compile_fields_matcher` matcher and copying
    the resulting dict into slot positions — but flat: per-position constant
    checks, slot stores, and repeated-variable equality checks are resolved
    to combined-tuple indexes at compile time.
    """
    if tmpl.kind is EventKind.FALSE:
        return lambda desc: None
    kind = tmpl.kind
    const_checks: list[tuple[int, Value]] = []
    binds: list[tuple[int, int]] = []
    repeats: list[tuple[int, int]] = []
    seen: set[str] = set()
    item = tmpl.item
    terms: tuple[Term, ...] = (
        (item.args + tmpl.values) if item is not None else tmpl.values
    )
    for pos, term in enumerate(terms):
        if term is WILDCARD:
            continue
        if isinstance(term, Const):
            const_checks.append((pos, term.value))
        elif isinstance(term, Var):
            if term.name in seen:
                repeats.append((pos, slot_of[term.name]))
            else:
                seen.add(term.name)
                binds.append((pos, slot_of[term.name]))
        else:
            raise CompileError(f"not a matchable term: {term!r}")
    bind_plan = tuple(binds)

    if item is None:

        def itemless_match(desc) -> Optional[list]:
            if desc.kind is not kind:
                return None
            vals = desc.values
            for pos, expected in const_checks:
                if vals[pos] != expected:
                    return None
            slots = [None] * n_slots
            for pos, slot in bind_plan:
                slots[slot] = vals[pos]
            for pos, slot in repeats:
                if slots[slot] != vals[pos]:
                    return None
            return slots

        return itemless_match

    family = item.name
    any_family = family == FAMILY_WILDCARD
    n_args = len(item.args)

    if not const_checks and not repeats:
        # The common shape — all-distinct variables and wildcards — gets a
        # closure with nothing but the discriminator checks and slot stores.
        def fast_match(desc) -> Optional[list]:
            if desc.kind is not kind:
                return None
            ref = desc.item
            if ref is None:
                return None
            if not any_family and ref.name != family:
                return None
            args = ref.args
            if len(args) != n_args:
                return None
            vals = args + desc.values
            slots = [None] * n_slots
            for pos, slot in bind_plan:
                slots[slot] = vals[pos]
            return slots

        return fast_match

    def general_match(desc) -> Optional[list]:
        if desc.kind is not kind:
            return None
        ref = desc.item
        if ref is None:
            return None
        if not any_family and ref.name != family:
            return None
        args = ref.args
        if len(args) != n_args:
            return None
        vals = args + desc.values
        for pos, expected in const_checks:
            if vals[pos] != expected:
                return None
        slots = [None] * n_slots
        for pos, slot in bind_plan:
            slots[slot] = vals[pos]
        for pos, slot in repeats:
            if slots[slot] != vals[pos]:
                return None
        return slots

    return general_match


# -- whole-rule compilation ---------------------------------------------------


def _template_variables_in_order(tmpl: Template) -> list[str]:
    """All template variables by first occurrence (item args, then values)."""
    ordered: list[str] = (
        tmpl.item.variables_in_order() if tmpl.item is not None else []
    )
    for term in tmpl.values:
        if isinstance(term, Var) and term.name not in ordered:
            ordered.append(term.name)
    return ordered


def compile_rule(rule: Rule) -> CompiledRule:
    """Compile a rule into a :class:`CompiledRule` program.

    Raises :class:`CompileError` for shapes the compiler does not
    specialize.
    """
    # -- slot layout: LHS template vars, binder vars, implicit ``now`` ------
    slot_names: list[str] = _template_variables_in_order(rule.lhs)
    binders = rule.binders
    for name, __ in binders:
        if name not in slot_names:
            slot_names.append(name)
    if "now" not in slot_names:
        slot_names.append("now")
    slot_of = {name: index for index, name in enumerate(slot_names)}
    now_slot = slot_of["now"]
    n_slots = len(slot_names)

    lhs_visible = {
        name: slot_of[name] for name in _template_variables_in_order(rule.lhs)
    }
    matcher = _compile_slot_matcher(rule.lhs, slot_of, n_slots)

    # -- binders + LHS condition -------------------------------------------
    binder_fns: list[tuple[int, ValueFn]] = []
    for name, expr in binders:
        binder_fns.append(
            (slot_of[name], _as_fn(_compile_expr(expr, lhs_visible)))
        )
        lhs_visible[name] = slot_of[name]
    condition = _compile_expr(rule.condition, lhs_visible)

    lhs_fn: Optional[ValueFn]
    if not binder_fns and condition[0]:
        # Constant condition, nothing to bind: the check disappears (or the
        # rule can never fire, which we still honour per firing).
        if condition[1]:
            lhs_fn = None
        else:
            lhs_fn = lambda slots, local: False  # noqa: E731
    elif not binder_fns:
        condition_fn = _as_fn(condition)
        lhs_fn = lambda slots, local: bool(  # noqa: E731
            condition_fn(slots, local)
        )
    else:
        binder_plan = tuple(binder_fns)
        condition_fn = _as_fn(condition)

        def lhs_with_binders(slots: list, local: LocalData) -> bool:
            for slot, fn in binder_plan:
                slots[slot] = fn(slots, local)
            return bool(condition_fn(slots, local))

        lhs_fn = lhs_with_binders

    # -- RHS steps ----------------------------------------------------------
    rhs_visible = dict(lhs_visible)
    rhs_visible["now"] = now_slot
    bound_names = set(rhs_visible)
    steps: list[CompiledStep] = []
    for step in rule.steps:
        tmpl = step.template
        if tmpl.kind is EventKind.FALSE:
            continue  # prohibitions are promises, not actions
        if tmpl.kind not in _EMITTABLE:
            raise CompileError(
                f"rule {rule.name!r}: cannot compile a {tmpl.kind.value} "
                f"emission"
            )
        condition = _compile_expr(step.condition, rhs_visible)
        if condition[0]:
            if not condition[1]:
                continue  # statically inapplicable: drop the step
            step_condition: Optional[ValueFn] = None
        else:
            step_condition = _as_fn(condition)
        assert tmpl.item is not None  # _EMITTABLE kinds all take an item
        enumerating = (
            tmpl.kind is EventKind.READ_REQUEST
            and bool(tmpl.item.variables() - bound_names)
        )
        make_ref = (
            None if enumerating else _compile_item_ref(tmpl.item, rhs_visible)
        )
        make_value = (
            _compile_value_term(tmpl.values[0], rhs_visible)
            if tmpl.kind in (EventKind.WRITE_REQUEST, EventKind.WRITE)
            else None
        )
        steps.append(
            CompiledStep(
                kind=tmpl.kind,
                condition=step_condition,
                make_ref=make_ref,
                make_value=make_value,
                enumerating=enumerating,
                family=tmpl.item.name,
            )
        )

    return CompiledRule(
        rule=rule,
        slot_names=tuple(slot_names),
        now_slot=now_slot,
        match=matcher,
        lhs=lhs_fn,
        steps=tuple(steps),
    )
