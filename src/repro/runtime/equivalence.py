"""The sim-vs-wire equivalence harness.

The wire runtime cannot promise the sim kernel's byte-identical
interleavings — real sockets and a wall clock do not have a global total
order.  What it *must* promise is the paper's actual contract:

1. every wire execution is a **valid execution** — all seven Appendix A.2
   properties hold over the recorded trace; and
2. the **guarantee verdicts are identical** — each guarantee the catalog
   issued for the installed strategy checks out the same way against the
   wire trace as against the sim trace for the same seeded scenario.

:func:`run_equivalence` runs one seeded salary scenario (the paper's
Section 4.2 running example) on both runtimes and compares;
``tests/runtime/test_sim_wire_equivalence.py`` asserts it across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.timebase import seconds
from repro.core.trace import validate_trace
from repro.runtime.api import RuntimeSpec
from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.channels import WireFaultPlan


@dataclass
class RuntimeObservation:
    """What one runtime's run of the scenario looked like."""

    runtime: str
    verdicts: dict[str, bool] = field(default_factory=dict)
    trace_violations: list[str] = field(default_factory=list)
    updates: int = 0
    messages_sent: int = 0
    events_recorded: int = 0
    rules_fired: int = 0
    #: Span-tree observations (tracing is always on in the harness):
    #: how many causal trees crossed sites, whether every one of them is
    #: connected, and whether each cross-site tree's ``end_to_end()``
    #: respects the installed metric guarantee's kappa.
    span_trees: int = 0
    cross_site_trees: int = 0
    disconnected_trees: int = 0
    trees_over_kappa: int = 0

    @property
    def trace_valid(self) -> bool:
        return not self.trace_violations

    @property
    def spans_valid(self) -> bool:
        """Every tree connected; every cross-site chain within kappa."""
        return not self.disconnected_trees and not self.trees_over_kappa

    def to_dict(self) -> dict[str, Any]:
        return {
            "runtime": self.runtime,
            "verdicts": dict(self.verdicts),
            "trace_valid": self.trace_valid,
            "trace_violations": list(self.trace_violations),
            "updates": self.updates,
            "messages_sent": self.messages_sent,
            "events_recorded": self.events_recorded,
            "rules_fired": self.rules_fired,
            "span_trees": self.span_trees,
            "cross_site_trees": self.cross_site_trees,
            "disconnected_trees": self.disconnected_trees,
            "trees_over_kappa": self.trees_over_kappa,
            "spans_valid": self.spans_valid,
        }


@dataclass
class EquivalenceReport:
    """One seed's sim-vs-wire comparison."""

    seed: int
    strategy_kind: str
    sim: RuntimeObservation
    wire: RuntimeObservation

    @property
    def verdicts_match(self) -> bool:
        return self.sim.verdicts == self.wire.verdicts

    @property
    def spans_match(self) -> bool:
        """Both runtimes' causal trees connected and kappa-respecting.

        This is the span-level equivalence the wire runtime owes: its
        reconnected (trace-context-carried) SpanTrees must reach the same
        ``end_to_end()``-vs-kappa verdicts the sim's in-process trees do —
        not the same tick values, which a wall clock cannot promise.
        """
        return self.sim.spans_valid and self.wire.spans_valid

    @property
    def ok(self) -> bool:
        """Both executions valid, every guarantee verdict identical, and
        span trees equivalent (connected, within kappa) on both sides."""
        return (
            self.sim.trace_valid
            and self.wire.trace_valid
            and self.verdicts_match
            and self.spans_match
        )

    def render(self) -> str:
        lines = [
            f"equivalence seed={self.seed} strategy={self.strategy_kind}: "
            f"{'OK' if self.ok else 'MISMATCH'}"
        ]
        for obs in (self.sim, self.wire):
            lines.append(
                f"  [{obs.runtime}] trace_valid={obs.trace_valid} "
                f"updates={obs.updates} messages={obs.messages_sent} "
                f"rules_fired={obs.rules_fired} "
                f"spans={obs.span_trees} trees "
                f"({obs.cross_site_trees} cross-site, "
                f"{obs.disconnected_trees} disconnected, "
                f"{obs.trees_over_kappa} over kappa)"
            )
            for violation in obs.trace_violations[:3]:
                lines.append(f"    violation: {violation}")
        if not self.verdicts_match:
            names = sorted(set(self.sim.verdicts) | set(self.wire.verdicts))
            for name in names:
                sim_v = self.sim.verdicts.get(name)
                wire_v = self.wire.verdicts.get(name)
                if sim_v != wire_v:
                    lines.append(f"  DIFF {name}: sim={sim_v} wire={wire_v}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "strategy": self.strategy_kind,
            "ok": self.ok,
            "verdicts_match": self.verdicts_match,
            "sim": self.sim.to_dict(),
            "wire": self.wire.to_dict(),
        }


def _observe(
    runtime: RuntimeSpec,
    label: str,
    seed: int,
    strategy_kind: str,
    employee_count: int,
    rate: float,
    duration_seconds: float,
) -> RuntimeObservation:
    # Imported lazily: the experiments package imports the runtime package.
    from repro.experiments.common import build_salary_scenario
    from repro.workloads import PersonnelWorkload

    salary = build_salary_scenario(
        strategy_kind=strategy_kind,
        seed=seed,
        runtime=runtime,
    )
    salary.scenario.obs.enable_tracing()
    workload = PersonnelWorkload(
        salary.cm,
        employee_count=employee_count,
        rate=rate,
        duration=seconds(duration_seconds),
    )
    try:
        salary.cm.run(until=seconds(duration_seconds + 10.0))
        reports = salary.cm.check_guarantees()
        violations = validate_trace(
            salary.scenario.trace, list(salary.installed.strategy.rules)
        )
        kappa = next(
            (g.within for g in salary.installed.guarantees if g.metric), None
        )
        span_trees = cross_site = disconnected = over_kappa = 0
        for tree in salary.scenario.obs.tracer.trees():
            span_trees += 1
            if not tree.connected:
                disconnected += 1
            if len(tree.sites) > 1:
                cross_site += 1
                if kappa is not None and tree.end_to_end() > kappa:
                    over_kappa += 1
        return RuntimeObservation(
            runtime=label,
            verdicts={name: report.valid for name, report in reports.items()},
            trace_violations=[str(v) for v in violations],
            updates=workload.stream.stats.updates,
            messages_sent=salary.scenario.network.messages_sent,
            events_recorded=len(salary.scenario.trace.events),
            rules_fired=salary.cm.stats()["total"]["rules_fired"],
            span_trees=span_trees,
            cross_site_trees=cross_site,
            disconnected_trees=disconnected,
            trees_over_kappa=over_kappa,
        )
    finally:
        # The wire runtime's sockets must be released even when a
        # comparison fails mid-observation.
        salary.scenario.shutdown()


def run_equivalence(
    seed: int,
    strategy_kind: str = "propagation",
    employee_count: int = 6,
    rate: float = 0.5,
    duration_seconds: float = 20.0,
    time_scale: float = 20.0,
    faults: WireFaultPlan | None = None,
) -> EquivalenceReport:
    """Run one seeded scenario on sim and over the wire and compare.

    The default workload (6 employees, 0.5 updates/s, 20 virtual seconds)
    keeps a wire run under two wall seconds at the default ``time_scale``
    while still exercising dozens of socket round trips.  The scale is
    deliberately conservative: the scenario's tightest rule-delay bound is
    1 virtual second, which at 20x is 50 wall milliseconds of scheduling
    headroom — comfortable even on a loaded machine, where a higher scale
    makes event-loop jitter masquerade as a timing-property violation.
    """
    sim_obs = _observe(
        "sim", "sim", seed, strategy_kind, employee_count, rate,
        duration_seconds,
    )
    wire_obs = _observe(
        AsyncRuntime(time_scale=time_scale, faults=faults), "wire", seed,
        strategy_kind, employee_count, rate, duration_seconds,
    )
    return EquivalenceReport(
        seed=seed, strategy_kind=strategy_kind, sim=sim_obs, wire=wire_obs
    )
