"""Microbenchmarks of the toolkit's hot paths.

Not tied to a paper table — these quantify the substrate itself (simulator
event throughput, SQL engine, rule matching, guarantee checking) so
regressions in the machinery underneath the experiments are visible.

Each test also records its wall-clock cost (and, for dispatch, the counter
values) into ``BENCH_core_micro.json``; the instrumentation-overhead guard
additionally asserts the no-sink observability hooks cost < 5% of dispatch.
"""

import time

import pytest

from bench_helpers import update_bench_json

from repro.cm import ConstraintManager, Scenario
from repro.core.dsl import parse_rule
from repro.core.events import EventKind, notify_desc, spontaneous_write_desc
from repro.core.guarantees import follows
from repro.core.items import MISSING, DataItemRef, item
from repro.core.rules import RhsStep, Rule
from repro.core.templates import FALSE_TEMPLATE, Template, match_desc
from repro.core.terms import FAMILY_WILDCARD, ItemPattern, Var
from repro.core.trace import ExecutionTrace
from repro.core.timebase import seconds
from repro.ris.relational import RelationalDatabase
from repro.sim.scheduler import Simulator


def _record_micro(key: str, run, extra: dict | None = None) -> None:
    """One extra timed run, persisted to BENCH_core_micro.json."""
    started = time.perf_counter()
    run()
    payload = {"wall_seconds": time.perf_counter() - started}
    if extra:
        payload.update(extra)
    update_bench_json("core_micro", key, payload)


def test_simulator_event_throughput(benchmark):
    def run() -> int:
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 10_000:
                sim.after(1, tick)

        sim.after(1, tick)
        sim.run()
        return counter[0]

    assert benchmark(run) == 10_000
    _record_micro("simulator_event_throughput", run, {"events": 10_000})


def test_sql_insert_select_throughput(benchmark):
    def run() -> int:
        db = RelationalDatabase("bench")
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v REAL)")
        for key in range(500):
            db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (key, key * 1.5))
        total = 0
        for key in range(0, 500, 7):
            total += len(db.query("SELECT v FROM t WHERE k = ?", (key,)))
        return total

    assert benchmark(run) > 0
    _record_micro("sql_insert_select_throughput", run)


def test_rule_matching_throughput(benchmark):
    rule = parse_rule("N(salary1(n), b) -> [5] WR(salary2(n), b)")
    descs = [
        notify_desc(item("salary1", f"e{i}"), float(i)) for i in range(1000)
    ]

    def run() -> int:
        matched = 0
        for desc in descs:
            if match_desc(rule.lhs, desc) is not None:
                matched += 1
        return matched

    assert benchmark(run) == 1000
    _record_micro("rule_matching_throughput", run, {"descs": 1000})


# -- rule dispatch: indexed vs linear -----------------------------------------
#
# The dispatch mix mirrors a big federation: one prohibition rule per item
# family, plus one family-wildcard rule per 50 (those land in the index's
# catch-all bucket, so every event still consults them).  Prohibition RHSs
# keep the measurement pure dispatch — no translator or network work.

N_DISPATCH_EVENTS = 200


def _dispatch_rules(n_rules: int) -> list[Rule]:
    rules = []
    for i in range(n_rules):
        if i % 50 == 49:
            lhs = Template(
                EventKind.NOTIFY,
                ItemPattern(FAMILY_WILDCARD, (Var("n"),)),
                (Var("b"),),
            )
            rules.append(
                Rule(
                    name=f"r{i}",
                    lhs=lhs,
                    delay=0,
                    steps=(RhsStep(FALSE_TEMPLATE),),
                )
            )
        else:
            rules.append(
                parse_rule(f"N(fam{i}(n), b) -> [1] FALSE", name=f"r{i}")
            )
    return rules


def _dispatch_descs(n_rules: int):
    return [
        notify_desc(item(f"fam{i % n_rules}", "e"), float(i))
        for i in range(N_DISPATCH_EVENTS)
    ]


def _build_dispatch_shell(n_rules: int, compiled: bool = True):
    cm = ConstraintManager(Scenario(seed=0))
    cm.add_site("bench")
    shell = cm.shell("bench")
    for rule in _dispatch_rules(n_rules):
        shell.install(rule, compiled=compiled)
    events = [
        cm.scenario.trace.record(seconds(i + 1), "bench", desc)
        for i, desc in enumerate(_dispatch_descs(n_rules))
    ]
    return shell, events


@pytest.mark.parametrize("n_rules", [10, 100, 1000])
def test_indexed_dispatch(benchmark, n_rules):
    # compiled=False: this is the tree-walking reference baseline that the
    # compiled_dispatch benchmarks below are measured against.
    shell, events = _build_dispatch_shell(n_rules, compiled=False)

    def run() -> int:
        for event in events:
            shell.deliver_local_event(event)
        return shell.rules_fired

    assert benchmark(run) > 0
    stats = shell.stats()
    linear_would_consider = (
        stats["rules_installed"] * stats["events_processed"]
    )
    _record_micro(f"indexed_dispatch_{n_rules}", run, {"dispatch": stats})
    # The index must prune hard at scale: >= 5x fewer candidate
    # evaluations than a linear scan at 1000 installed rules.
    if n_rules >= 1000:
        assert stats["candidates_considered"] * 5 <= linear_would_consider


@pytest.mark.parametrize("n_rules", [10, 100, 1000])
def test_compiled_dispatch(benchmark, n_rules):
    shell, events = _build_dispatch_shell(n_rules)
    assert shell.stats()["rules_compiled"] == n_rules

    def run() -> int:
        for event in events:
            shell.deliver_local_event(event)
        return shell.rules_fired

    assert benchmark(run) > 0
    _record_micro(
        f"compiled_dispatch_{n_rules}", run, {"dispatch": shell.stats()}
    )


def test_compiled_dispatch_speedup_at_scale():
    """The install-time rule programs must beat the tree-walking reference
    by >= 3x on the 1000-rule dispatch mix (the ISSUE's acceptance bar)."""
    compiled_shell, compiled_events = _build_dispatch_shell(1000)
    reference_shell, reference_events = _build_dispatch_shell(
        1000, compiled=False
    )

    def compiled_run() -> None:
        for event in compiled_events:
            compiled_shell.deliver_local_event(event)

    def reference_run() -> None:
        for event in reference_events:
            reference_shell.deliver_local_event(event)

    def timed(fn) -> float:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started

    for fn in (compiled_run, reference_run, compiled_run, reference_run):
        fn()  # warm-up
    best_compiled = best_reference = float("inf")
    for round_index in range(20):
        if round_index % 2 == 0:
            t_c, t_r = timed(compiled_run), timed(reference_run)
        else:
            t_r, t_c = timed(reference_run), timed(compiled_run)
        best_compiled = min(best_compiled, t_c)
        best_reference = min(best_reference, t_r)

    speedup = best_reference / best_compiled
    update_bench_json(
        "core_micro",
        "compiled_dispatch_speedup_1000",
        {
            "compiled_seconds": best_compiled,
            "interpreted_seconds": best_reference,
            "speedup": speedup,
        },
    )
    assert speedup >= 3.0, (
        f"compiled dispatch is only {speedup:.2f}x faster than the "
        f"interpreted baseline at 1000 rules "
        f"({best_compiled * 1e3:.2f}ms vs {best_reference * 1e3:.2f}ms); "
        f"the budget is 3x"
    )


@pytest.mark.parametrize("n_rules", [10, 100, 1000])
def test_linear_scan_dispatch_baseline(benchmark, n_rules):
    rules = _dispatch_rules(n_rules)
    descs = _dispatch_descs(n_rules)

    def run() -> int:
        fired = 0
        for desc in descs:
            for rule in rules:
                if match_desc(rule.lhs, desc) is not None:
                    fired += 1
        return fired

    assert benchmark(run) >= N_DISPATCH_EVENTS
    _record_micro(f"linear_scan_dispatch_{n_rules}", run)


def test_guarantee_checker_on_large_trace(benchmark):
    trace = ExecutionTrace()
    x, y = DataItemRef("X"), DataItemRef("Y")
    time = 0
    for index in range(2000):
        time += seconds(1)
        trace.record(
            time, "a",
            spontaneous_write_desc(x, trace.current_value(x), index),
        )
        trace.record(
            time + seconds(0.1), "b",
            spontaneous_write_desc(y, trace.current_value(y), index),
        )
    trace.close(time + seconds(10))
    guarantee = follows("X", "Y", within_seconds=2)

    def run() -> bool:
        return guarantee.check(trace).valid

    assert benchmark(run)
    _record_micro("guarantee_checker_large_trace", run, {"writes": 4000})


def test_shell_events_per_second(benchmark):
    """End-to-end events/sec budget: the full Section 4.2 salary scenario
    (workload, network, translators, guarantees) with compiled dispatch.

    This is the number the ISSUE's perf budget tracks — dispatched events
    per wall-clock second over a complete scenario, not a microloop.
    """
    from repro.experiments.common import build_salary_scenario
    from repro.workloads import PersonnelWorkload

    def run() -> int:
        salary = build_salary_scenario(strategy_kind="propagation", seed=3)
        PersonnelWorkload(
            salary.cm, employee_count=20, rate=2.0, duration=seconds(300)
        )
        salary.cm.run(until=seconds(400))
        return salary.cm.stats()["total"]["events_processed"]

    events_processed = benchmark(run)
    assert events_processed > 0

    started = time.perf_counter()
    events_processed = run()
    wall = time.perf_counter() - started
    update_bench_json(
        "core_micro",
        "shell_events_per_second",
        {
            "wall_seconds": wall,
            "events_processed": events_processed,
            "events_per_second": events_processed / wall,
        },
    )


# -- instrumentation overhead (PR 2 guard) ------------------------------------
#
# The observability hooks must be near-free when no sink is attached: the
# shell's hot path pays registry-counter increments (attribute increments on
# interned Counter objects) plus the ``obs.enabled`` and
# ``obs.rule_profiling`` checks.  The baseline below replicates the dispatch
# kernel call for call — ``deliver_local_event`` -> ``_process_event`` ->
# ``_applies`` -> ``_fire`` -> RHS executor, sharing the shell's own
# ``_applies`` and executors — with plain-int counters and no ``obs``
# checks, so the ratio measures instrumentation and nothing else; the
# instrumented path must stay within 5% of it.


class _UninstrumentedDispatch:
    """The shell's per-event dispatch kernel minus its instrumentation."""

    # Slotted like the registry's Counter, so a plain-int increment here
    # costs what a ``counter.value += 1`` costs there.
    __slots__ = (
        "shell",
        "events_processed",
        "candidates_considered",
        "rules_fired",
        "fired_by_rule",
    )

    def __init__(self, shell):
        self.shell = shell
        self.events_processed = 0
        self.candidates_considered = 0
        self.rules_fired = 0
        self.fired_by_rule = dict.fromkeys(shell._fired_by_rule, 0)

    def deliver_local_event(self, event) -> None:
        self._process_event(event)

    def _process_event(self, event) -> None:
        self.events_processed += 1
        desc = event.desc
        shell = self.shell
        candidates = shell._index.candidates(desc)
        self.candidates_considered += len(candidates)
        for installed in candidates:
            bound = shell._applies(installed, desc)
            if bound is not None:
                self._fire(installed, bound, event)

    def _fire(self, installed, bound, trigger) -> None:
        rule = installed.rule
        self.rules_fired += 1
        self.fired_by_rule[rule.name] += 1
        shell = self.shell
        program = installed.program
        rhs_site = installed.rhs_site
        assert rhs_site is None or rhs_site == shell.site
        if program is not None:
            shell._execute_compiled_rhs(program, bound, trigger)
        else:
            shell._execute_rhs(rule, bound, trigger)


def test_instrumentation_overhead_no_sink():
    # compiled=False: the 5% budget was set on the interpreted arm (the
    # replica shares ``_applies`` and the executors, so it follows whichever
    # arm the shell's rules were installed on).
    shell, events = _build_dispatch_shell(1000, compiled=False)
    assert not shell.obs.enabled and not shell.obs.sinks
    baseline = _UninstrumentedDispatch(shell)

    def instrumented(block) -> None:
        for event in block:
            shell.deliver_local_event(event)

    def uninstrumented(block) -> None:
        for event in block:
            baseline.deliver_local_event(event)

    def timed(fn, block) -> float:
        started = time.perf_counter()
        fn(block)
        return time.perf_counter() - started

    # Alternating-order min-of-30, taken per 50-event block: the two sides
    # of a block run back to back (under a millisecond apart), so a noisy
    # neighbour or a clock-speed shift hits both alike, and the minimum
    # over the rounds is the least-noise estimate of each block's cost.
    # (Whole-pass minima, 20 ms apart, read anywhere from 0.82 to 1.48 on a
    # busy 2-CPU box: each side's minimum came from a different quiet spell.)
    blocks = [events[i : i + 50] for i in range(0, len(events), 50)]
    for block in blocks * 2:  # warm-up
        instrumented(block)
        uninstrumented(block)
    best_i = [float("inf")] * len(blocks)
    best_b = [float("inf")] * len(blocks)
    for round_index in range(30):
        for k, block in enumerate(blocks):
            if (round_index + k) % 2 == 0:
                t_i, t_b = timed(instrumented, block), timed(uninstrumented, block)
            else:
                t_b, t_i = timed(uninstrumented, block), timed(instrumented, block)
            best_i[k] = min(best_i[k], t_i)
            best_b[k] = min(best_b[k], t_b)
    best_instrumented, best_baseline = sum(best_i), sum(best_b)

    ratio = best_instrumented / best_baseline
    update_bench_json(
        "core_micro",
        "instrumentation_overhead_no_sink",
        {
            "instrumented_seconds": best_instrumented,
            "baseline_seconds": best_baseline,
            "overhead_ratio": ratio,
        },
    )
    assert ratio < 1.05, (
        f"no-sink instrumentation overhead {100 * (ratio - 1):.1f}% "
        f"exceeds the 5% budget "
        f"({best_instrumented * 1e3:.2f}ms vs {best_baseline * 1e3:.2f}ms)"
    )


def _build_lint_cm(n_rules: int):
    """A two-site configuration with ``n_rules`` chained private-write
    rules installed directly on one shell (plus the wired salary sources),
    sized for lint-throughput measurement."""
    from repro.cm import CMRID
    from repro.core.interfaces import InterfaceKind
    from repro.ris.relational import RelationalDatabase

    cm = ConstraintManager(Scenario(seed=0))
    cm.add_site("sf")
    cm.add_site("ny")
    branch = RelationalDatabase("branch")
    branch.execute(
        "CREATE TABLE employees (empid TEXT PRIMARY KEY, salary REAL)"
    )
    rid = CMRID("relational", "branch").bind(
        "salary1",
        params=("n",),
        table="employees",
        key_column="empid",
        value_column="salary",
    )
    rid.offer("salary1", InterfaceKind.NOTIFY, bound_seconds=2.0)
    rid.offer("salary1", InterfaceKind.READ, bound_seconds=1.0)
    cm.add_source("sf", branch, rid)
    shell = cm.shell("sf")
    # A periodic head keeps the whole chain reachable (no CM401 noise);
    # each link triggers on the previous link's private write.
    cm.locations.register("Stage0", "sf")
    shell.install(parse_rule("P(3600) -> [1] W(Stage0, 0)", name="head"))
    for i in range(1, n_rules):
        cm.locations.register(f"Stage{i}", "sf")
        shell.install(
            parse_rule(
                f"W(Stage{i - 1}, b) -> [1] W(Stage{i}, b)",
                name=f"link{i}",
            )
        )
    return cm


@pytest.mark.parametrize("n_rules", [10, 100, 1000])
def test_lint_rules(benchmark, n_rules):
    from repro.analysis import lint_manager

    cm = _build_lint_cm(n_rules)

    def run() -> int:
        return len(lint_manager(cm).diagnostics)

    findings = benchmark(run)
    cm.stop()
    assert findings == 0  # the chain is lint-clean by construction
    _record_micro(f"lint_rules_{n_rules}", run, {"rules": n_rules})


def test_lint_scales_near_linearly():
    # 100x the rules must cost well under 100x^2 the time: allow 100x the
    # per-rule budget times a generous constant, i.e. assert the total is
    # within 8x of linear extrapolation from the small configuration.
    def timed(n_rules: int) -> float:
        from repro.analysis import lint_manager

        cm = _build_lint_cm(n_rules)
        lint_manager(cm)  # warm-up
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            lint_manager(cm)
            best = min(best, time.perf_counter() - started)
        cm.stop()
        return best

    small, large = timed(10), timed(1000)
    ratio = large / small
    update_bench_json(
        "core_micro",
        "lint_scaling",
        {"t_10": small, "t_1000": large, "ratio": ratio},
    )
    assert ratio < 800, f"lint scaled {ratio:.0f}x for 100x the rules"
