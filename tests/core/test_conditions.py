"""Unit tests for condition expressions."""

import pytest

from repro.core.conditions import (
    NO_LOCAL_DATA,
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
from repro.core.errors import BindingError
from repro.core.items import MISSING, DataItemRef
from repro.core.terms import ItemPattern, Var


class FakeStore:
    def __init__(self, values):
        self.values = values

    def read_local(self, ref):
        return self.values.get(ref, MISSING)


def evaluate_value(expr, bindings, local=NO_LOCAL_DATA):
    """An expression's raw value, as the interpreter resolves operands."""
    return _resolve_operand(expr, bindings, local)


class TestNameResolution:
    def test_bound_variable_wins(self):
        assert evaluate_value(Name("b"), {"b": 3}) == 3

    def test_uppercase_name_reads_local_item(self):
        store = FakeStore({DataItemRef("Cx"): 42})
        assert evaluate_value(Name("Cx"), {}, store) == 42

    def test_unbound_lowercase_name_raises(self):
        with pytest.raises(BindingError):
            evaluate_value(Name("b"), {}, FakeStore({}))

    def test_item_read_grounds_parameters(self):
        store = FakeStore({DataItemRef("cache", ("e1",)): 7})
        expr = ItemRead(ItemPattern("cache", (Var("n"),)))
        assert evaluate_value(expr, {"n": "e1"}, store) == 7


class TestOperators:
    def test_arithmetic(self):
        expr = Binary("+", Literal(2), Binary("*", Literal(3), Literal(4)))
        assert evaluate_value(expr, {}) == 14

    def test_comparison(self):
        assert evaluate(Binary("<", Literal(1), Literal(2)), {})
        assert not evaluate(Binary(">=", Literal(1), Literal(2)), {})

    def test_equality_with_missing(self):
        assert evaluate(Binary("==", Literal(MISSING), Literal(MISSING)), {})
        assert evaluate(Binary("!=", Literal(1), Literal(MISSING)), {})

    def test_ordered_comparison_with_missing_raises(self):
        with pytest.raises(BindingError):
            evaluate(Binary("<", Literal(MISSING), Literal(1)), {})

    def test_boolean_short_circuit(self):
        # The right side would raise if evaluated.
        boom = Name("unbound_var")
        assert not evaluate(Binary("and", Literal(False), boom), {})
        assert evaluate(Binary("or", Literal(True), boom), {})

    def test_not_and_negate(self):
        assert evaluate(Unary("not", Literal(False)), {})
        assert evaluate_value(Unary("-", Literal(5)), {}) == -5

    def test_abs(self):
        assert evaluate_value(Call("abs", (Literal(-3),)), {}) == 3

    def test_exists(self):
        store = FakeStore({DataItemRef("Flag"): True})
        assert evaluate(Call("exists", (Name("Flag"),)), {}, store)
        assert not evaluate(Call("exists", (Name("Gone"),)), {}, store)

    def test_paper_conditional_notify_condition(self):
        # abs(b - a) > a * 0.1  (the 10%-change filter of Section 3.1.1)
        expr = Binary(
            ">",
            Call("abs", (Binary("-", Name("b"), Name("a")),)),
            Binary("*", Name("a"), Literal(0.1)),
        )
        assert evaluate(expr, {"a": 100, "b": 115})
        assert not evaluate(expr, {"a": 100, "b": 105})


class TestTrueConstant:
    def test_true_is_trivially_satisfied(self):
        assert evaluate(TRUE, {}, NO_LOCAL_DATA)
