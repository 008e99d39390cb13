"""The generic formula checker against a *real* toolkit execution.

The specialized checkers drive the experiments; here the enumerative
formula checker independently verifies the same paper guarantees over an
actual propagation run — the strongest cross-validation the repository has
(different checker, same trace, same verdicts).
"""

from repro.core.formula import FormulaChecker
from repro.core.guarantee_dsl import parse_guarantee
from repro.core.items import item
from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario

#: The guarantees' Y item: the copy the strategy maintains.
Y = item("salary2", "e1")


def run_small_scenario(seed: int = 42, updates: int = 12):
    salary = build_salary_scenario("propagation", seed=seed)
    rng = salary.cm.scenario.rngs.stream("formula-e2e")
    time = 5.0
    for index in range(updates):
        value = float(rng.randint(1, 9) * 1000 + index)
        salary.cm.scenario.sim.at(
            seconds(time),
            lambda v=value: salary.cm.spontaneous_write(
                "salary1", ("e1",), v
            ),
        )
        time += rng.uniform(4.0, 12.0)
    salary.cm.run(until=seconds(time + 30))
    return salary


def assert_y_changed(trace) -> None:
    """The copy changed at least once, so the verdict judged propagations
    and not only the initial state."""
    assert len(trace.timeline(Y).change_points()) > 1


class TestFormulaOnRealExecution:
    def test_paper_guarantees_hold_generically(self):
        salary = run_small_scenario()
        trace = salary.scenario.trace
        formulas = {
            "g1": "(salary1('e1') = y)@t1 "
                  "=> (salary2('e1') = y)@t0 & t0 <= t1 "
                  "& (salary1('e1') = y)@t2 & t2 < t1",
            "g4": "(salary2('e1') = y)@t1 "
                  "=> (salary1('e1') = y)@t2 & t1 - 6 < t2 & t2 < t1",
        }
        # g4 is the paper's metric guarantee (4) verbatim.
        assert_y_changed(trace)
        checker = FormulaChecker(parse_guarantee(formulas["g4"]))
        assert checker.check(trace) == []

    def test_generic_checker_agrees_with_specialized(self):
        from repro.core.guarantees import follows

        salary = run_small_scenario(seed=7)
        trace = salary.scenario.trace
        assert_y_changed(trace)
        specialized = follows(
            "salary1", "salary2", within_seconds=6
        ).check(trace)
        generic = FormulaChecker(
            parse_guarantee(
                "(salary2('e1') = y)@t1 => (salary1('e1') = y)@t2 "
                "& t1 - 6 < t2 & t2 < t1"
            )
        ).check(trace)
        assert specialized.valid == (not generic)

    def test_generic_checker_catches_a_broken_run(self):
        salary = run_small_scenario(seed=9)
        # Sabotage the copy *behind the CM's back* after the run: the trace
        # gains a spontaneous write at HQ the strategy never made.
        salary.cm.spontaneous_write("salary2", ("e1",), 123456.0)
        salary.cm.run(until=salary.scenario.sim.now + seconds(5))
        trace = salary.scenario.trace
        generic = FormulaChecker(
            parse_guarantee(
                "(salary2('e1') = y)@t1 => (salary1('e1') = y)@t2 & t2 < t1"
            )
        ).check(trace)
        assert generic
        assert any(v.values.get("y") == 123456.0 for v in generic)
