"""Randomized compiled-vs-interpreted equivalence for rule programs.

The load-bearing property: for any rule the compiler accepts, the compiled
program (:mod:`repro.core.compile`) must agree with the tree-walking
reference path — ``match_desc`` + ``evaluate``/``_resolve_operand`` +
``ground_item``/``ground_term`` — on every input: same match/no-match, same
bindings, same condition verdicts, same grounded events, and the same
exception classes where the reference raises.  These tests drive that over
generated expressions, rules, descriptors, and stores, and over every rule
the strategy catalog builds; the directed tests pin the constant-folding and
static-decision behaviours.
"""

import random

import pytest

from repro.core.compile import CompiledRule, compile_rule
from repro.core.conditions import (
    TRUE,
    Binary,
    Call,
    ItemRead,
    Literal,
    Name,
    Unary,
    _resolve_operand,
    evaluate,
)
from repro.core.dsl import parse_condition, parse_rule
from repro.core.errors import BindingError, CompileError
from repro.core.events import EventDesc, EventKind, notify_desc, periodic_desc
from repro.core.items import MISSING, DataItemRef
from repro.core.rules import RhsStep, Rule
from repro.core.strategies import (
    arithmetic_maintenance,
    cached_propagation,
    eod_batch,
    eod_cleanup,
    monitor,
    polling,
    propagation,
)
from repro.core.templates import (
    FALSE_TEMPLATE,
    Template,
    instantiate,
    match_desc,
)
from repro.core.terms import (
    FAMILY_WILDCARD,
    WILDCARD,
    Const,
    ItemPattern,
    Var,
)
from repro.core.timebase import hours, seconds


class DictLocal:
    """A LocalData over a plain dict (stand-in for a shell store)."""

    def __init__(self, data=None):
        self.data = dict(data or {})

    def read_local(self, ref):
        return self.data.get(ref, MISSING)


def compile_over(expr, bindings):
    """Compile ``expr`` with a slot per binding; return (fn, slots)."""
    names = sorted(bindings)
    slot_of = {name: index for index, name in enumerate(names)}
    # Reuse the internal expression compiler through a minimal façade.
    from repro.core.compile import _as_fn, _compile_expr

    fn = _as_fn(_compile_expr(expr, slot_of))
    slots = [bindings[name] for name in names]
    return fn, slots


# -- expression equivalence ----------------------------------------------------

VARS = ["n", "b", "m"]
LOCALS_UPPER = ["X", "Cache", "Flag"]
VALUES = [0, 1, 2.5, -3, "x", True, False, MISSING]


def random_expr(rng, depth=0):
    choices = ["literal", "name", "itemread", "unary", "binary", "call"]
    if depth >= 3:
        choices = ["literal", "name", "itemread"]
    kind = rng.choice(choices)
    if kind == "literal":
        return Literal(rng.choice(VALUES))
    if kind == "name":
        # Bound vars, unbound lowercase vars, and uppercase local items.
        return Name(rng.choice(VARS + ["zz"] + LOCALS_UPPER))
    if kind == "itemread":
        args = tuple(
            rng.choice([Var(rng.choice(VARS + ["zz"])), Const(rng.choice(VALUES))])
            for __ in range(rng.choice([0, 1, 2]))
        )
        return ItemRead(ItemPattern(rng.choice(["cache", "seen"]), args))
    if kind == "unary":
        return Unary(rng.choice(["-", "not"]), random_expr(rng, depth + 1))
    if kind == "binary":
        op = rng.choice(
            ["+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "and", "or"]
        )
        return Binary(op, random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    func = rng.choice(["abs", "exists"])
    if func == "exists":
        arg = rng.choice(
            [
                Name(rng.choice(LOCALS_UPPER)),
                ItemRead(ItemPattern("cache", (Var(rng.choice(VARS)),))),
            ]
        )
        return Call("exists", (arg,))
    return Call("abs", (random_expr(rng, depth + 1),))


def reference_outcome(fn, *args):
    """Run a callable; normalize value-or-exception for comparison."""
    try:
        return ("ok", fn(*args))
    except (BindingError, TypeError) as exc:
        return ("raise", type(exc).__name__)
    except (ZeroDivisionError,) as exc:
        return ("raise", type(exc).__name__)


def verdict(fn, *args):
    """:func:`reference_outcome` of a condition, its value read as a bool."""
    kind, value = reference_outcome(fn, *args)
    return (kind, bool(value)) if kind == "ok" else (kind, value)


@pytest.mark.parametrize("seed", range(8))
def test_random_expression_equivalence(seed):
    rng = random.Random(seed)
    for __ in range(300):
        expr = random_expr(rng)
        bindings = {
            name: rng.choice(VALUES)
            for name in VARS
            if rng.random() < 0.8
        }
        local = DictLocal()
        for upper in LOCALS_UPPER:
            if rng.random() < 0.7:
                local.data[DataItemRef(upper)] = rng.choice(VALUES)
        for family in ("cache", "seen"):
            for key in VALUES[:5]:
                if rng.random() < 0.4:
                    local.data[DataItemRef(family, (key,))] = rng.choice(VALUES)
        try:
            fn, slots = compile_over(expr, bindings)
        except CompileError:
            pytest.fail(f"compiler rejected a valid expression: {expr}")
        expected = reference_outcome(_resolve_operand, expr, dict(bindings), local)
        got = reference_outcome(fn, slots, local)
        assert got == expected, (
            f"expr {expr} bindings {bindings}: compiled {got} != "
            f"interpreted {expected}"
        )
        # evaluate() additionally coerces to bool; verdicts must agree too.
        expected_bool = reference_outcome(
            lambda: bool(evaluate(expr, dict(bindings), local))
        )
        got_bool = reference_outcome(lambda: bool(fn(slots, local)))
        assert got_bool == expected_bool


# -- matcher equivalence -------------------------------------------------------

FAMILIES = ["alpha", "beta", "gamma"]
KEYS = ["e1", "e2", "e3"]
ITEM_KINDS = [
    EventKind.WRITE,
    EventKind.SPONTANEOUS_WRITE,
    EventKind.WRITE_REQUEST,
    EventKind.READ_REQUEST,
    EventKind.READ_RESPONSE,
    EventKind.NOTIFY,
]


def random_lhs(rng):
    kind = rng.choice(ITEM_KINDS + [EventKind.PERIODIC])
    if kind is EventKind.PERIODIC:
        return Template(kind, None, (Const(seconds(rng.choice([5, 10]))),))
    name = rng.choice(FAMILIES + [FAMILY_WILDCARD])
    args = tuple(
        rng.choice(
            [Var("n"), Var("m"), Var("n"), Const(rng.choice(KEYS)), WILDCARD]
        )
        for __ in range(rng.choice([0, 1, 1, 2]))
    )
    values = tuple(
        rng.choice([Var("b"), Var("n"), Const(rng.choice([1.0, "x"])), WILDCARD])
        for __ in range(kind.value_arity)
    )
    return Template(kind, ItemPattern(name, args), values)


def random_desc(rng):
    kind = rng.choice(ITEM_KINDS + [EventKind.PERIODIC])
    if kind is EventKind.PERIODIC:
        return periodic_desc(seconds(rng.choice([5, 10])))
    ref = DataItemRef(
        rng.choice(FAMILIES),
        tuple(rng.choice(KEYS) for __ in range(rng.choice([0, 1, 1, 2]))),
    )
    values = tuple(
        rng.choice([1.0, 2.0, "x", "e1"]) for __ in range(kind.value_arity)
    )
    return EventDesc(kind, ref, values)


def assert_slots_match_bindings(program: CompiledRule, slots, bindings):
    slot_of = {name: i for i, name in enumerate(program.slot_names)}
    for name, value in bindings.items():
        assert slots[slot_of[name]] == value, (
            f"slot {name}: {slots[slot_of[name]]!r} != {value!r}"
        )


@pytest.mark.parametrize("seed", range(8))
def test_random_matcher_equivalence(seed):
    rng = random.Random(1000 + seed)
    for __ in range(200):
        lhs = random_lhs(rng)
        rule = Rule(
            name="r", lhs=lhs, delay=seconds(1),
            steps=(RhsStep(FALSE_TEMPLATE),),
        )
        program = compile_rule(rule)
        for ___ in range(20):
            desc = random_desc(rng)
            expected = match_desc(lhs, desc)
            slots = program.match(desc)
            if expected is None:
                assert slots is None, f"{lhs} vs {desc}: spurious match"
            else:
                assert slots is not None, f"{lhs} vs {desc}: missed match"
                assert_slots_match_bindings(program, slots, expected)


# -- every rule the strategy catalog builds -----------------------------------


def _strategy_rules():
    """``(label/rule name, rule)`` for every rule of every strategy."""
    delay = seconds(1)
    specs = {
        "propagation": propagation("alpha", "beta", delay, params=("n",)),
        "cached-propagation": cached_propagation(
            "alpha", "beta", delay, params=("n",), dst_site="s"
        ),
        "polling": polling("alpha", "beta", seconds(60), delay, params=("n",)),
        "monitor": monitor("alpha", "beta", "s", delay),
        "eod-batch": eod_batch(
            "alpha", "beta", hours(17), delay, params=("n",)
        ),
        "eod-cleanup": eod_cleanup("alpha", "beta", hours(17), delay),
        "arithmetic-notify": arithmetic_maintenance(
            "gamma", ("alpha", "beta"), "s", delay
        ),
        "arithmetic-poll": arithmetic_maintenance(
            "gamma", ("alpha", "beta"), "s", delay,
            transport="poll", period=seconds(60),
        ),
    }
    return [
        (f"{label}/{rule.name}", rule)
        for label, spec in specs.items()
        for rule in spec.rules
    ]


STRATEGY_RULES = _strategy_rules()
LOCAL_VALUES = [0, 1, 2.5, True, MISSING]


def desc_from_lhs(rng, lhs):
    """A descriptor the LHS template matches: its variables bound at
    random (item keys from ``KEYS``, values possibly ``MISSING``)."""
    keys = lhs.item.variables_in_order() if lhs.item is not None else []
    bindings = {name: rng.choice(KEYS) for name in keys}
    for term in lhs.values:
        if isinstance(term, Var) and term.name not in bindings:
            bindings[term.name] = rng.choice([0, 1, 2.5, -3, "x", MISSING])
    return instantiate(lhs, bindings)


class SeededLocal:
    """A LocalData that answers every read: each ref's value is a pure
    function of the seed and the ref, so the compiled program and the
    reference read the same store whatever order they read it in."""

    def __init__(self, seed):
        self.seed = seed

    def read_local(self, ref):
        return random.Random(f"{self.seed}|{ref!r}").choice(LOCAL_VALUES)


# -- LHS condition + binder equivalence ---------------------------------------

CONDITIONS = [
    "b > 0",
    "b > X",
    "abs(b - Cache) > 1",
    "exists(cache(n)) and cache(n) != b",
    "b == 1 or n == 'e1'",
    "not (b < 0)",
    "X == Cache and b >= 0",
    "v == X + 1 and v > b",     # binder: captures X+1 into v
    "v == Cache and v != b",    # binder over a local read
]


@pytest.mark.parametrize("seed", range(4))
def test_random_lhs_condition_equivalence(seed):
    rng = random.Random(2000 + seed)
    for condition_src in CONDITIONS:
        condition = parse_condition(condition_src)
        lhs = Template(
            EventKind.NOTIFY, ItemPattern("alpha", (Var("n"),)), (Var("b"),)
        )
        rule = Rule(
            name="r", lhs=lhs, delay=seconds(1),
            steps=(RhsStep(FALSE_TEMPLATE),), condition=condition,
        )
        program = compile_rule(rule)
        slot_of = {name: i for i, name in enumerate(program.slot_names)}
        for __ in range(100):
            desc = notify_desc(
                DataItemRef("alpha", (rng.choice(KEYS),)),
                rng.choice([0, 1, 2.5, -3, MISSING]),
            )
            local = DictLocal()
            for upper in ("X", "Cache"):
                if rng.random() < 0.8:
                    local.data[DataItemRef(upper)] = rng.choice([0, 1, 2.5])
            for key in KEYS:
                if rng.random() < 0.5:
                    local.data[DataItemRef("cache", (key,))] = rng.choice(
                        [0, 1, 2.5]
                    )

            # Reference: match, bind, evaluate; unbindable = not applicable.
            bindings = match_desc(lhs, desc)
            assert bindings is not None
            try:
                for var, expr in rule.binders:
                    bindings[var] = _resolve_operand(expr, bindings, local)
                expected_ok = bool(evaluate(condition, bindings, local))
            except (BindingError, TypeError):
                expected_ok = False

            slots = program.match(desc)
            assert slots is not None
            if program.lhs is None:
                got_ok = True
            else:
                try:
                    got_ok = bool(program.lhs(slots, local))
                except (BindingError, TypeError):
                    got_ok = False
            assert got_ok == expected_ok, (
                f"condition {condition_src!r} desc {desc} "
                f"local {local.data}: compiled {got_ok} != {expected_ok}"
            )
            if expected_ok:
                # Binder slots must hold the reference binder values.
                for var, __expr in rule.binders:
                    assert slots[slot_of[var]] == bindings[var]
    for __, rule in STRATEGY_RULES:
        assert_lhs_condition_matches_reference(rule, rng)


def assert_lhs_condition_matches_reference(rule, rng):
    """Descriptors built from the rule's own LHS, against a seeded store:
    the compiled match, binders and LHS condition agree with ``match_desc``
    + ``_resolve_operand`` + ``evaluate``."""
    program = compile_rule(rule)
    slot_of = {name: i for i, name in enumerate(program.slot_names)}
    for __ in range(100):
        desc = desc_from_lhs(rng, rule.lhs)
        local = SeededLocal(rng.random())
        bindings = match_desc(rule.lhs, desc)
        assert bindings is not None
        try:
            for var, expr in rule.binders:
                bindings[var] = _resolve_operand(expr, bindings, local)
            expected_ok = bool(evaluate(rule.condition, bindings, local))
        except (BindingError, TypeError):
            expected_ok = False
        slots = program.match(desc)
        assert slots is not None
        assert_slots_match_bindings(program, slots, match_desc(rule.lhs, desc))
        try:
            got_ok = program.lhs is None or bool(program.lhs(slots, local))
        except (BindingError, TypeError):
            got_ok = False
        assert got_ok == expected_ok, f"{rule.name} on {desc}"
        if expected_ok:
            for var, __expr in rule.binders:
                assert slots[slot_of[var]] == bindings[var]


# -- RHS step equivalence ------------------------------------------------------

RHS_RULES = [
    "N(alpha(n), b) -> [1] WR(beta(n), b)",
    "N(alpha(n), b) -> [1] (b > Cache) ? WR(beta(n), b)",
    "N(alpha(n), b) -> [1] W(cache(n), b), (b > 0) ? WR(beta(n), b)",
    "N(alpha(n), b) -> [1] WR(beta(n), b), W(Seen, b)",
    "N(alpha(n), b) -> [1] RR(beta(n))",
    "N(alpha(n), b) -> [1] RR(beta(m))",  # enumerating: m never bound
    "P(60) & (b == X) -> [1] WR(beta('e1'), b)",
    "N(alpha(n), b) -> [1] W(Tb, now)",
]


@pytest.mark.parametrize(
    "source",
    RHS_RULES + [pytest.param(rule, id=label) for label, rule in STRATEGY_RULES],
)
def test_rhs_step_plans_match_reference(source):
    rng = random.Random(42)
    rule = parse_rule(source, name="r") if isinstance(source, str) else source
    program = compile_rule(rule)
    live_steps = [
        step for step in rule.steps
        if step.template.kind is not EventKind.FALSE
    ]
    assert len(program.steps) == len(live_steps)
    fired = 0
    for __ in range(50):
        desc = desc_from_lhs(rng, rule.lhs)
        local = SeededLocal(rng.random())
        bindings = match_desc(rule.lhs, desc)
        assert bindings is not None
        try:
            for var, expr in rule.binders:
                bindings[var] = _resolve_operand(expr, bindings, local)
            if not evaluate(rule.condition, bindings, local):
                continue
        except (BindingError, TypeError):
            continue
        fired += 1
        slots = program.match(desc)
        if program.lhs is not None:
            assert program.lhs(slots, local)
        now = seconds(123)
        slots[program.now_slot] = now
        for step, compiled in zip(live_steps, program.steps):
            step_bindings = dict(bindings)
            step_bindings["now"] = now
            expected_applicable = verdict(
                evaluate, step.condition, step_bindings, local
            )
            if compiled.condition is None:
                got_applicable = ("ok", True)
            else:
                got_applicable = verdict(compiled.condition, slots, local)
            assert got_applicable == expected_applicable
            if expected_applicable != ("ok", True):
                continue
            assert compiled.kind is step.template.kind
            if compiled.enumerating:
                unbound = step.template.item.variables() - set(step_bindings)
                assert unbound, "compiled enumerating but reference is ground"
                assert compiled.family == step.template.item.name
                continue
            expected_event = instantiate(step.template, step_bindings)
            assert compiled.make_ref(slots) == expected_event.item
            if compiled.make_value is not None:
                assert compiled.make_value(slots) == expected_event.values[0]
    assert fired, f"{rule.name}: no descriptor passed the LHS"


# -- directed compile-time behaviours -----------------------------------------

def test_constant_true_condition_folds_away():
    rule = parse_rule("N(alpha(n), b) -> [1] WR(beta(n), b)", name="r")
    assert rule.condition is TRUE
    program = compile_rule(rule)
    assert program.lhs is None
    assert program.steps[0].condition is None


def test_constant_subexpressions_fold():
    rule = parse_rule(
        "N(alpha(n), b) & (b > 2 * 3 + 4) -> [1] WR(beta(n), b)", name="r"
    )
    program = compile_rule(rule)
    desc = notify_desc(DataItemRef("alpha", ("e1",)), 11.0)
    slots = program.match(desc)
    local = DictLocal()
    assert program.lhs(slots, local) is True
    slots = program.match(notify_desc(DataItemRef("alpha", ("e1",)), 9.0))
    assert program.lhs(slots, local) is False


def test_statically_false_step_is_dropped():
    rule = parse_rule(
        "N(alpha(n), b) -> [1] (1 > 2) ? WR(beta(n), b), W(Seen, b)",
        name="r",
    )
    program = compile_rule(rule)
    assert len(program.steps) == 1
    assert program.steps[0].kind is EventKind.WRITE


def test_prohibition_compiles_to_empty_program():
    rule = parse_rule("N(alpha(n), b) -> [1] FALSE", name="r")
    program = compile_rule(rule)
    assert program.steps == ()
    assert program.lhs is None


def test_ground_ref_resolved_at_compile_time():
    rule = parse_rule("N(alpha(n), b) -> [1] WR(beta('e9'), b)", name="r")
    program = compile_rule(rule)
    ref_a = program.steps[0].make_ref([None, None, None])
    ref_b = program.steps[0].make_ref([1, 2, 3])
    assert ref_a == DataItemRef("beta", ("e9",)) and ref_a is ref_b


def test_enumerating_read_decided_statically():
    rule = parse_rule("P(60) -> [1] RR(beta(m))", name="r")
    program = compile_rule(rule)
    assert program.steps[0].enumerating
    assert program.steps[0].family == "beta"
    ground = parse_rule("N(alpha(n), b) -> [1] RR(beta(n))", name="r2")
    assert not compile_rule(ground).steps[0].enumerating


def test_slot_layout_is_deterministic():
    rule = parse_rule(
        "N(alpha(n), b) & (v == X) -> [1] WR(beta(n), v)", name="r"
    )
    program = compile_rule(rule)
    assert program.slot_names == ("n", "b", "v", "now")
    assert program.now_slot == 3


def test_uncompilable_rhs_kind_raises_compile_error():
    # An N emission is rejected by the compiler, so the shell refuses the
    # rule at install.
    rule = Rule(
        name="r",
        lhs=Template(
            EventKind.NOTIFY, ItemPattern("alpha", (Var("n"),)), (Var("b"),)
        ),
        delay=seconds(1),
        steps=(
            RhsStep(
                Template(
                    EventKind.NOTIFY,
                    ItemPattern("beta", (Var("n"),)),
                    (Var("b"),),
                )
            ),
        ),
    )
    with pytest.raises(CompileError):
        compile_rule(rule)
