"""Tests for the generic guarantee-formula language and checker.

The centerpiece is cross-validation: on randomized propagation/corruption
traces the generic enumerative checker must agree with the specialized
interval-algebra checkers for every guarantee family of Section 3.3.1.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.errors import CheckError, DslSyntaxError
from repro.core.formula import (
    ExistsAtom,
    FormulaChecker,
    GuaranteeFormula,
    StateAtom,
    TimeConstraint,
    TimeExpr,
)
from repro.core.guarantee_dsl import parse_guarantee
from repro.core.guarantees import follows, leads, strictly_follows
from repro.core.items import DataItemRef
from repro.core.timebase import seconds

from conftest import make_timeline_trace

S = seconds

GUARANTEE_1 = "(Y = y)@t1 => (X = y)@t2 & t2 < t1"
GUARANTEE_2 = "(X = x)@t1 => (Y = x)@t2 & t2 > t1"
GUARANTEE_3 = (
    "(Y = y1)@t1 & (Y = y2)@t2 & t1 < t2 "
    "=> (X = y1)@t3 & (X = y2)@t4 & t3 < t4"
)


def metric_guarantee(kappa_s: float) -> str:
    return f"(Y = y)@t1 => (X = y)@t2 & t1 - {kappa_s} < t2 & t2 < t1"


def check(text: str, trace) -> bool:
    return not FormulaChecker(parse_guarantee(text)).check(trace)


class TestParser:
    def test_guarantee_1_shape(self):
        formula = parse_guarantee(GUARANTEE_1)
        assert len(formula.lhs) == 1 and len(formula.rhs) == 2
        atom = formula.lhs[0]
        assert isinstance(atom, StateAtom)
        assert atom.item == DataItemRef("Y") and atom.value_var == "y"

    def test_time_offsets_in_seconds(self):
        formula = parse_guarantee(metric_guarantee(6))
        constraint = next(
            a for a in formula.rhs if isinstance(a, TimeConstraint)
        )
        assert constraint.left.offset == -seconds(6)

    def test_exists_atoms(self):
        formula = parse_guarantee(
            "E(project('e1'))@t1 => E(salary('e1'))@t2 & t2 >= t1"
        )
        assert isinstance(formula.lhs[0], ExistsAtom)
        assert formula.lhs[0].item == DataItemRef("project", ("e1",))

    def test_negated_exists(self):
        formula = parse_guarantee("!E(X)@t1 => (Y = 0)@t1")
        assert formula.lhs[0].negated

    def test_literal_values(self):
        formula = parse_guarantee("(Flag = true)@t1 => (X = 5)@t1")
        assert formula.lhs[0].value_const is True
        assert formula.rhs[0].value_const == 5

    def test_str_roundtrips_reparse(self):
        formula = parse_guarantee(GUARANTEE_3)
        # Rendering uses ticks for offsets; reparse of structure-only texts:
        reparsed = parse_guarantee(GUARANTEE_3)
        assert reparsed == formula

    def test_trailing_garbage_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_guarantee(GUARANTEE_1 + " nonsense(")

    def test_unordered_time_constraint_rejected_at_check(self):
        formula = parse_guarantee("t2 < t1 => (X = 1)@t1")
        trace = make_timeline_trace({"X": [(S(1), 1)]}, horizon=S(5))
        with pytest.raises(CheckError):
            FormulaChecker(formula).check(trace)


class TestGenericChecking:
    def propagation_trace(self):
        return make_timeline_trace(
            {
                "X": [(S(1), "a"), (S(10), "b"), (S(20), "c")],
                "Y": [(S(2), "a"), (S(11), "b"), (S(21), "c")],
            },
            horizon=S(40),
        )

    def test_guarantee_1_valid_on_propagation(self):
        assert check(GUARANTEE_1, self.propagation_trace())

    def test_guarantee_1_violated_by_invention(self):
        trace = make_timeline_trace(
            {"X": [(S(1), "a")], "Y": [(S(2), "zz")]}, horizon=S(10)
        )
        violations = FormulaChecker(parse_guarantee(GUARANTEE_1)).check(trace)
        assert violations
        assert violations[0].values["y"] == "zz"

    def test_guarantee_3_detects_reordering(self):
        trace = make_timeline_trace(
            {
                "X": [(S(1), 1), (S(2), 2)],
                "Y": [(S(3), 2), (S(4), 1)],
            },
            horizon=S(10),
        )
        assert not check(GUARANTEE_3, trace)

    def test_metric_variant(self):
        trace = self.propagation_trace()
        assert check(metric_guarantee(3), trace)
        # Y holds "a" during [2s, 11s) while X left "a" at 10s: with a tiny
        # kappa the tail of that segment has no fresh witness.
        assert not check(metric_guarantee(0.5), trace)

    def test_exists_formula(self):
        from repro.core.items import MISSING

        trace = make_timeline_trace(
            {
                "P": [(S(1), "rec"), (S(30), MISSING)],
                "C": [(S(5), "rec")],
            },
            horizon=S(60),
        )
        # Every time P exists, C exists within 10 s.
        formula = (
            "E(P)@t1 => E(C)@t2 & t2 >= t1 - 0 & t2 <= t1 + 10"
        )
        assert check(formula, trace)
        tight = "E(P)@t1 => E(C)@t2 & t2 >= t1 & t2 <= t1 + 1"
        assert not check(tight, trace)


class TestCrossValidation:
    """The generic checker must agree with the specialized ones."""

    histories = st.lists(
        st.integers(0, 4), min_size=1, max_size=6
    )

    @given(histories, st.integers(1, 4), st.booleans(), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_agreement_on_guarantee_1_and_4(
        self, xs, delay_s, corrupt, corrupt_at
    ):
        gap = S(10)
        x_history = [(S(1) + i * gap, v) for i, v in enumerate(xs)]
        y_history = [(t + S(delay_s), v) for t, v in x_history]
        if corrupt:
            index = corrupt_at % len(y_history)
            time, __ = y_history[index]
            y_history[index] = (time, 99)
        trace = make_timeline_trace(
            {"X": x_history, "Y": y_history},
            horizon=x_history[-1][0] + gap,
        )
        specialized = follows("X", "Y").check(trace).valid
        generic = check(GUARANTEE_1, trace)
        assert specialized == generic
        kappa = delay_s + 10
        specialized_metric = follows(
            "X", "Y", within_seconds=kappa
        ).check(trace).valid
        generic_metric = check(metric_guarantee(kappa), trace)
        assert specialized_metric == generic_metric

    @given(histories, st.integers(1, 4), st.booleans(), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_agreement_on_guarantee_2(self, xs, delay_s, drop, drop_at):
        # Y copies X's values after a delay, or misses one of them.  The
        # formula is cut at the horizon: an obligation raised at the very
        # last instant has no later instant to be met at, while the
        # specialized checker counts a value Y still holds at the horizon as
        # reflected.
        gap = S(10)
        x_history = [(S(1) + i * gap, v) for i, v in enumerate(xs)]
        y_history = [(t + S(delay_s), v) for t, v in x_history]
        if drop:
            del y_history[drop_at % len(y_history)]
        horizon = x_history[-1][0] + gap
        trace = make_timeline_trace(
            {"X": x_history, "Y": y_history}, horizon=horizon
        )
        specialized = leads("X", "Y").check(trace).valid
        cut = f"(X = x)@t1 & t1 < {horizon // S(1)} => (Y = x)@t2 & t2 > t1"
        assert specialized == check(cut, trace)

    @given(histories, st.integers(1, 3), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_agreement_on_guarantee_3(self, xs, delay_s, reorder):
        gap = S(10)
        x_history = [(S(1) + i * gap, v) for i, v in enumerate(xs)]
        y_values = list(xs)
        if reorder and len(set(y_values)) > 1:
            y_values = list(reversed(y_values))
        y_history = [
            (t + S(delay_s), v) for (t, __), v in zip(x_history, y_values)
        ]
        trace = make_timeline_trace(
            {"X": x_history, "Y": y_history},
            horizon=x_history[-1][0] + gap,
        )
        specialized = strictly_follows("X", "Y").check(trace).valid
        generic = check(GUARANTEE_3, trace)
        assert specialized == generic
