"""Acceptance: one cross-site propagation is one trigger chain in the trace.

Running a single spontaneous write on the salary scenario must leave one
remote ``W`` whose trigger chain leads back, through the trace alone, to
the ``Ws`` on the other site: ``Ws@sf -> N@sf -> WR@ny -> W@ny``.  Its
root-to-``W`` lag equals the trace's ``W - Ws`` gap, is what the
``propagation_latency`` histogram observed and the run report's
``propagation`` section reports, and respects the installed metric
guarantee's kappa bound.
"""

from trigger_chains import chains, lag, rooted, shape

from repro.core.events import EventKind
from repro.core.timebase import seconds, to_seconds
from repro.experiments.common import build_salary_scenario


def run_propagation():
    salary = build_salary_scenario("propagation")
    cm = salary.cm
    cm.spontaneous_write("salary1", ("emp1",), 64_000.0)
    cm.run(seconds(30))
    return salary, cm


class TestPropagationTrace:
    def test_single_chain_crosses_both_sites(self):
        __, cm = run_propagation()
        (chain,) = chains(cm.scenario.trace)
        assert rooted(chain)
        assert [event.site for event in chain] == ["sf", "sf", "ny", "ny"]

    def test_causal_chain_orders_shell_network_translator(self):
        __, cm = run_propagation()
        (chain,) = chains(cm.scenario.trace)
        # The notification fires the rule at sf; the network carries the
        # firing to ny, whose shell requests the write its translator
        # performs — the cross-site edge is N@sf -> WR@ny.
        assert shape(chain) == ["Ws@sf", "N@sf", "WR@ny", "W@ny"]
        times = [event.time for event in chain]
        assert times == sorted(times)
        assert chain[0].rule is None
        assert all(event.rule is not None for event in chain[1:])

    def test_end_to_end_matches_trace_and_metric_guarantee(self):
        salary, cm = run_propagation()
        (chain,) = chains(cm.scenario.trace)

        trace = cm.scenario.trace
        (ws,) = trace.events_of_kind(EventKind.SPONTANEOUS_WRITE)
        (w,) = trace.events_of_kind(EventKind.WRITE)
        assert lag(chain) == w.time - ws.time > 0

        # The same latency is what the translator histogram observed ...
        hist = cm.scenario.obs.metrics.get("propagation_latency", family="salary2")
        assert hist is not None
        assert hist.count == 1
        assert hist.max == lag(chain)

        # ... and it must respect the metric guarantee's kappa bound.
        metric = [g for g in salary.installed.guarantees if g.metric]
        assert metric, "scenario should issue a metric follows-guarantee"
        assert lag(chain) <= metric[0].within

    def test_report_propagation_max_is_the_largest_chain_lag(self):
        __, cm = run_propagation()
        (chain,) = chains(cm.scenario.trace)
        report = cm.run_report()
        (entry,) = [p for p in report.propagation if p["family"] == "salary2"]
        assert entry["max_s"] == to_seconds(lag(chain))
