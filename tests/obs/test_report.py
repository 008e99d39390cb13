"""Tests for the structured run report assembled by ``cm.run_report()``."""

from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario


def run_salary(**kwargs):
    salary = build_salary_scenario("propagation", **kwargs)
    cm = salary.cm
    cm.spontaneous_write("salary1", ("e1",), 50_000.0)
    cm.spontaneous_write("salary1", ("e2",), 60_000.0)
    cm.run(seconds(30))
    return salary, cm


class TestRunReport:
    def test_dispatch_section_is_the_stats_adapter(self):
        __, cm = run_salary()
        report = cm.run_report()
        assert report.horizon_s == 30.0
        assert report.dispatch == cm.stats()
        assert report.dispatch["total"]["rules_fired"] >= 2
        # The stats() adapter reads the same registry series that the
        # report reads.
        registry = cm.scenario.obs.metrics
        for site in ("sf", "ny"):
            assert (
                registry.value("shell_events_processed", site=site)
                == cm.shell(site).stats()["events_processed"]
            )

    def test_constraint_firings_come_from_rule_counters(self):
        __, cm = run_salary()
        report = cm.run_report()
        (entry,) = report.constraints
        assert entry["kind"] == "propagation"
        assert sum(entry["rules_fired"].values()) == (
            report.dispatch["total"]["rules_fired"]
        )

    def test_propagation_network_and_translator_sections(self):
        __, cm = run_salary()
        report = cm.run_report()
        (prop,) = report.propagation
        assert prop["family"] == "salary2"
        assert prop["count"] == 2
        assert 0 < prop["mean_s"] <= prop["max_s"]

        net = report.network
        assert net["messages_sent"] == cm.scenario.network.messages_sent > 0
        assert net["messages_dropped"] == 0
        channels = {entry["channel"] for entry in net["channels"]}
        assert "sf->ny" in channels

        by_source = {entry["source"]: entry for entry in report.translators}
        assert set(by_source) == {"branch", "hq"}
        assert by_source["branch"]["notifications_delivered"] == 2
        assert by_source["hq"]["writes_requested"] == 2
        assert by_source["hq"]["ris_ops"].get("sql_insert", 0) >= 2

    def test_guarantees_failures_and_scheduler(self):
        __, cm = run_salary()
        report = cm.run_report()
        assert report.failures["total"] == 0
        assert report.guarantees
        for entry in report.guarantees:
            assert entry["standing"] is True
            assert 0.0 <= entry["staleness_fraction"] <= 1.0
        assert any(entry["metric"] for entry in report.guarantees)
        assert report.scheduler["callbacks_run"] > 0

    def test_render_and_serialisation_round_trip(self):
        import json

        __, cm = run_salary()
        report = cm.run_report()
        text = report.render()
        assert text.startswith("run report (horizon 30s)")
        assert "constraint" in text and "propagation salary2" in text
        parsed = json.loads(report.to_json())
        assert parsed == json.loads(json.dumps(report.to_dict(), default=str))

    def test_trace_index_counters(self):
        __, cm = run_salary()
        report = cm.run_report()
        index = report.trace_index
        assert index == cm.scenario.trace.stats()
        assert index["events_recorded"] == len(cm.scenario.trace.events)
        assert index["state_versions"] > 0
        assert "trace:" in report.render()
        assert report.to_dict()["trace_index"] == index

    def test_write_to_file(self, tmp_path):
        import json

        __, cm = run_salary()
        path = cm.run_report().write_to(tmp_path / "report.json")
        data = json.loads(path.read_text())
        assert data["horizon_s"] == 30.0
        assert data["dispatch"]["total"]["rules_fired"] >= 2
