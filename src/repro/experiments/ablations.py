"""Ablations of the design choices the paper calls out.

1. **In-order message processing** (Appendix A property 7).  The paper notes
   that the requirement for in-order processing was *discovered* while
   proving the "Y strictly follows X" guarantee.  The ablation disables the
   network's per-channel FIFO and shows guarantee (3) — and the
   path-plotting application built on it — breaking, while guarantee (1)
   survives (it never cared about order).  The property-7 checker itself
   is asked too: it must flag the free-for-all run and pass the FIFO one.

2. **Trigger-echo suppression.**  Translators do not report CM-originated
   writes through notify interfaces (``Ws -> N`` covers spontaneous writes
   only).  Disabling the suppression on a two-way copy pair would ping-pong
   writes forever; here we measure the echo volume a *one-way* pair would
   needlessly emit.
"""

from __future__ import annotations

from repro.apps import PlotterApp
from repro.core.guarantees import FollowsGuarantee, StrictlyFollowsGuarantee
from repro.core.items import DataItemRef
from repro.core.timebase import seconds
from repro.core.trace import validate_trace
from repro.experiments.common import (
    ExperimentResult,
    RunConfig,
    attach_observability,
    build_salary_scenario,
    resolve_config,
)
from repro.sim.network import UniformLatency
from repro.workloads import UpdateStream


CLAIM = (
    "with FIFO channels disabled, guarantee (3) 'Y strictly follows X' "
    "breaks (and the plotter draws out-of-order paths) while guarantee (1) "
    "still holds, and valid-execution property 7 flags exactly that run — "
    "confirming why the formalism demands in-order processing"
)


def run_in_order_ablation(
    config: RunConfig | None = None,
    *,
    seed: int = 10,
    updates: int = 300,
    duration: float = 150.0,
) -> ExperimentResult:
    """Run the propagation scenario with and without FIFO channels."""
    config = resolve_config(config)
    seed = config.resolve_seed(seed)
    updates = config.scaled(updates)
    result = ExperimentResult(
        experiment="Ablation: in-order delivery (Appendix A property 7)",
        claim=CLAIM,
        headers=[
            "channels",
            "g1 follows",
            "g3 strict",
            "plot points",
            "out_of_order_pairs",
            "p7 flagged",
        ],
    )
    outcomes = {}
    for in_order in (True, False):
        salary = build_salary_scenario(
            strategy_kind="propagation",
            seed=seed,
            in_order=in_order,
            # High jitter relative to the update gap makes overtaking likely
            # once the FIFO clamp is gone.
            latency=UniformLatency(seconds(0.01), seconds(2.0)),
            runtime=config.runtime_spec(),
        )

        counter = iter(range(1, updates + 1))

        def next_position(stream, key):
            return float(next(counter))

        UpdateStream(
            salary.cm,
            "salary1",
            ["robot"],
            rate=updates / duration,
            duration=seconds(duration),
            value_model=next_position,
        )
        salary.cm.run(until=seconds(duration + 30))
        reports = salary.cm.check_guarantees()
        follows_ok = reports[salary.issued(FollowsGuarantee, metric=False).name].valid
        strict_ok = reports[salary.issued(StrictlyFollowsGuarantee).name].valid
        plotter = PlotterApp(
            salary.cm,
            DataItemRef("salary1", ("robot",)),
            DataItemRef("salary2", ("robot",)),
        )
        audit = plotter.audit()
        late = sum(
            violation.property_number == 7
            for violation in validate_trace(
                salary.scenario.trace, list(salary.installed.strategy.rules)
            )
        )
        outcomes[in_order] = (follows_ok, strict_ok, audit, late)
        result.rows.append(
            [
                "fifo" if in_order else "free-for-all",
                follows_ok,
                strict_ok,
                audit.points_plotted,
                len(audit.out_of_order_pairs),
                late,
            ]
        )
    fifo_follows, fifo_strict, fifo_audit, fifo_late = outcomes[True]
    free_follows, free_strict, free_audit, free_late = outcomes[False]
    if not (fifo_follows and fifo_strict and fifo_audit.ordered):
        result.claim_holds = False
        result.notes.append("FIFO channels did not preserve guarantee (3)")
    if free_strict or free_audit.ordered:
        result.claim_holds = False
        result.notes.append(
            "removing FIFO did not break guarantee (3); raise latency jitter"
        )
    if not free_follows:
        result.claim_holds = False
        result.notes.append(
            "guarantee (1) broke without FIFO; it should be order-insensitive"
        )
    if fifo_late or not free_late:
        result.claim_holds = False
        result.notes.append(
            "the property-7 checker must flag the free-for-all run and only it"
        )
    attach_observability(result, salary.cm)
    return result


ECHO_CLAIM = (
    "without translator echo suppression every CM write would come back as "
    "a notification — pure overhead on a one-way pair and a feedback loop "
    "on a two-way one"
)


def run_echo_ablation(
    config: RunConfig | None = None,
    *,
    seed: int = 11,
    duration: float = 120.0,
) -> ExperimentResult:
    """Measure notify traffic with echo suppression on and off."""
    config = resolve_config(config)
    seed = config.resolve_seed(seed)
    result = ExperimentResult(
        experiment="Ablation: trigger-echo suppression",
        claim=ECHO_CLAIM,
        headers=["suppression", "notifications", "write_requests"],
    )
    from repro.core.events import Event, EventKind, spontaneous_write_desc
    from repro.core.interpretations import EMPTY_INTERPRETATION

    counts = {}
    for suppress in (True, False):
        salary = build_salary_scenario(
            strategy_kind="propagation", seed=seed,
            runtime=config.runtime_spec(),
        )
        if not suppress:
            translator = salary.cm.shell("ny").translator_for("salary2")
            # Expose the echo: pretend every native write is spontaneous by
            # pinning the marker event (what a naive translator would do).
            original = translator._native_write

            def leaky_write(ref, value, _original=original, _t=translator):
                marker = _t._current_spontaneous
                if marker is None:  # a fake Ws marker, numbered outside the run
                    _t._current_spontaneous = Event(
                        _t.sim.now,
                        _t.site,
                        spontaneous_write_desc(ref, value, value),
                        EMPTY_INTERPRETATION,
                        EMPTY_INTERPRETATION,
                        seq=0,
                    )
                try:
                    _original(ref, value)
                finally:
                    _t._current_spontaneous = marker

            translator._native_write = leaky_write  # type: ignore[method-assign]
            # The echo needs a notify hook on the destination to fire at all.
            translator.rid.offer(
                "salary2", __import__(
                    "repro.core.interfaces", fromlist=["InterfaceKind"]
                ).InterfaceKind.NOTIFY, bound_seconds=2.0,
            )
            translator._interfaces = None
            translator.setup_notify("salary2")
        UpdateStream(
            salary.cm,
            "salary1",
            ["e1"],
            rate=0.5,
            duration=seconds(duration),
        )
        salary.cm.run(until=seconds(duration + 30))
        trace = salary.scenario.trace
        notifications = sum(
            1 for e in trace.events if e.desc.kind is EventKind.NOTIFY
        )
        write_requests = sum(
            1 for e in trace.events if e.desc.kind is EventKind.WRITE_REQUEST
        )
        counts[suppress] = notifications
        result.rows.append(
            ["on" if suppress else "off", notifications, write_requests]
        )
    if counts[False] <= counts[True]:
        result.claim_holds = False
        result.notes.append("disabling suppression produced no echo traffic")
    attach_observability(result, salary.cm)
    return result


SKEW_CLAIM = (
    "a shell clock running behind stamps Tb too early, making the monitor "
    "guarantee unsound once the skew exceeds the kappa margin — time-"
    "referencing guarantees must absorb clock skew (Section 7.2)"
)


def run_clock_skew_ablation(
    config: RunConfig | None = None,
    *,
    skews_seconds: tuple[float, ...] = (0.0, -1.0, -10.0),
    seed: int = 12,
) -> ExperimentResult:
    """Sweep (negative) clock skew at the monitoring shell.

    Positive skew is conservative (Tb stamped late shrinks the claimed
    interval); *negative* skew — the local clock behind true time — extends
    claims backwards over time before the agreement began, which only the
    kappa margin can absorb.
    """
    from repro.core.guarantees.monitor import MonitorGuarantee
    from repro.core.items import DataItemRef
    from repro.core.timebase import to_seconds
    from repro.experiments.e6_monitor import build_monitor_cm

    config = resolve_config(config)
    seed = config.resolve_seed(seed)
    result = ExperimentResult(
        experiment="Ablation: clock skew (Section 7.2)",
        claim=SKEW_CLAIM,
        headers=[
            "skew_s",
            "kappa_s",
            "sound at kappa",
            "start_margin_s",
            "sound with margin",
        ],
    )
    outcomes = {}
    for skew_s in skews_seconds:
        cm, installed, catalog_kappa = build_monitor_cm(
            seed, runtime=config.runtime_spec()
        )
        cm.shell("site-y").clock_skew = seconds(skew_s)
        rng = cm.scenario.rngs.stream("skew-workload")
        time = 5.0
        for index in range(50):
            value = float(index)
            cm.scenario.sim.at(
                seconds(time),
                lambda v=value: cm.spontaneous_write("X", (), v),
            )
            lag = rng.uniform(8.0, 15.0) if index % 5 == 0 else 0.5
            cm.scenario.sim.at(
                seconds(time + lag),
                lambda v=value: cm.spontaneous_write("Y", (), v),
            )
            time += rng.expovariate(0.1)
        cm.run(until=seconds(time + 60))
        strategy = installed.strategy
        flag = DataItemRef(strategy.metadata["flag_family"])
        tb = DataItemRef(strategy.metadata["tb_family"])
        at_kappa = MonitorGuarantee(
            DataItemRef("X"), DataItemRef("Y"), flag, tb,
            seconds(catalog_kappa),
        ).check(cm.scenario.trace)
        # The paper's remedy: an error margin *in the interval* — here on
        # its start, since a behind-running clock stamps Tb too early.
        widened = MonitorGuarantee(
            DataItemRef("X"), DataItemRef("Y"), flag, tb,
            seconds(catalog_kappa),
            start_margin=seconds(abs(skew_s)),
        ).check(cm.scenario.trace)
        outcomes[skew_s] = (at_kappa.valid, widened.valid)
        result.rows.append(
            [
                skew_s,
                catalog_kappa,
                at_kappa.valid,
                abs(skew_s),
                widened.valid,
            ]
        )
    if not outcomes[0.0][0]:
        result.claim_holds = False
        result.notes.append("the zero-skew baseline was already unsound")
    worst = min(skews_seconds)
    if outcomes[worst][0]:
        result.claim_holds = False
        result.notes.append(
            f"skew {worst}s did not break the unwidened guarantee; "
            f"increase the skew relative to kappa"
        )
    if not all(widened for __, widened in outcomes.values()):
        result.claim_holds = False
        result.notes.append(
            "a start margin of |skew| did not restore soundness"
        )
    attach_observability(result, cm)
    return result


def main() -> None:
    print(run_in_order_ablation().render())
    print()
    print(run_echo_ablation().render())
    print()
    print(run_clock_skew_ablation().render())


if __name__ == "__main__":
    main()


#: The out-of-order ablation deliberately runs the catalog's propagation
#: strategy over a channel whose jitter (up to 2s) exceeds the latency
#: headroom its κ assumes — CM-Lint correctly flags the metric guarantee
#: as statically infeasible (CM601), which is the very effect the ablation
#: measures.  Keep the finding visible but allowlisted.
LINT_SUPPRESS = ("CM601",)


def build_for_lint():
    """CM-Lint hook: the baseline wiring plus the out-of-order variant."""
    return [
        build_salary_scenario(strategy_kind="propagation", seed=10).cm,
        build_salary_scenario(
            strategy_kind="propagation",
            seed=10,
            in_order=False,
            latency=UniformLatency(seconds(0.01), seconds(2.0)),
        ).cm,
    ]
