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
``test_sim_wire_equivalence.py`` asserts it across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from trigger_chains import chains, lag, rooted

from repro.core.timebase import seconds
from repro.core.trace import validate_trace
from repro.experiments.common import build_salary_scenario
from repro.runtime.api import RuntimeSpec
from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.channels import WireFaultPlan
from repro.workloads import PersonnelWorkload


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
    #: Trigger-chain observations, one chain per ``W`` in the trace:
    #: how many crossed sites, how many do not resolve back to a ``Ws`` or
    #: ``P`` root, and how many cross-site chains took longer than the
    #: installed metric guarantee's kappa.
    chains: int = 0
    cross_site_chains: int = 0
    unrooted_chains: int = 0
    chains_over_kappa: int = 0

    @property
    def trace_valid(self) -> bool:
        return not self.trace_violations

    @property
    def chains_valid(self) -> bool:
        """Every chain rooted; every cross-site chain within kappa."""
        return not self.unrooted_chains and not self.chains_over_kappa

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
            "chains": self.chains,
            "cross_site_chains": self.cross_site_chains,
            "unrooted_chains": self.unrooted_chains,
            "chains_over_kappa": self.chains_over_kappa,
            "chains_valid": self.chains_valid,
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
    def chains_match(self) -> bool:
        """Both runtimes' trigger chains rooted and kappa-respecting.

        This is the causal equivalence the wire runtime owes: its chains,
        whose cross-site step is a trigger carried by value in a frame,
        must reach the same lag-vs-kappa verdicts the sim's do — not the
        same tick values, which a wall clock cannot promise.
        """
        return self.sim.chains_valid and self.wire.chains_valid

    @property
    def decided(self) -> bool:
        """Both runtimes fired rules, sent messages and built chains: two
        runs that did nothing agree on everything and show nothing."""
        return all(
            obs.rules_fired > 0 and obs.messages_sent > 0 and obs.chains > 0
            for obs in (self.sim, self.wire)
        )

    @property
    def ok(self) -> bool:
        """Both executions did work and are valid, every guarantee verdict
        identical, and trigger chains equivalent (rooted, within kappa) on
        both sides."""
        return (
            self.decided
            and self.sim.trace_valid
            and self.wire.trace_valid
            and self.verdicts_match
            and self.chains_match
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
                f"chains={obs.chains} "
                f"({obs.cross_site_chains} cross-site, "
                f"{obs.unrooted_chains} unrooted, "
                f"{obs.chains_over_kappa} over kappa)"
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
    salary = build_salary_scenario(
        strategy_kind=strategy_kind,
        seed=seed,
        runtime=runtime,
    )
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
        found = chains(salary.scenario.trace)
        cross_site = [c for c in found if c[0].site != c[-1].site]
        return RuntimeObservation(
            runtime=label,
            verdicts={name: report.valid for name, report in reports.items()},
            trace_violations=[str(v) for v in violations],
            updates=workload.stream.stats.updates,
            messages_sent=salary.scenario.network.messages_sent,
            events_recorded=len(salary.scenario.trace.events),
            rules_fired=salary.cm.stats()["total"]["rules_fired"],
            chains=len(found),
            cross_site_chains=len(cross_site),
            unrooted_chains=sum(not rooted(c) for c in found),
            chains_over_kappa=sum(
                kappa is not None and lag(c) > kappa for c in cross_site
            ),
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
