"""Schema snapshot for ``RunReport.to_dict()``.

The run report's JSON is consumed outside the process — CI artifacts,
the perf-trajectory tooling, anything diffing reports across PRs — so
its key set is a contract.  This snapshot pins the top-level keys
exactly and the key sets of each structured section; adding a field is a
deliberate snapshot update here, and removing or renaming one is loud.
"""

import json

from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario

TOP_LEVEL_KEYS = [
    "horizon_s",
    "dispatch",
    "constraints",
    "propagation",
    "network",
    "translators",
    "failures",
    "guarantees",
    "scheduler",
    "traces",
    "trace_index",
    "lint",
    "flight",
]

DISPATCH_TOTAL_KEYS = {
    "events_processed",
    "candidates_considered",
    "rules_fired",
    "rules_installed",
    "rules_compiled",
    "rules_fallback",
    "batches_processed",
    "batch_events",
}

NETWORK_KEYS = {"messages_sent", "messages_dropped", "channels"}
CHANNEL_KEYS = {
    "channel", "count", "mean_s", "min_s", "max_s", "p50_s", "p99_s",
    "max_in_flight",
}
FAILURES_KEYS = {"total", "metric", "logical", "recoveries", "notices"}
GUARANTEE_KEYS = {
    "name", "metric", "standing", "staleness_s", "staleness_fraction",
}
CONSTRAINT_KEYS = {"constraint", "kind", "strategy", "rules_fired"}
PROPAGATION_KEYS = {
    "family", "count", "mean_s", "min_s", "max_s", "p50_s", "p99_s",
}
TRANSLATOR_KEYS = {
    "source", "site", "kind", "notifications_delivered",
    "notifications_suppressed", "reads_requested", "writes_requested",
    "ris_ops",
}
SCHEDULER_KEYS = {"callbacks_run", "max_queue_depth"}
TRACES_KEYS = {"trees", "spans", "max_end_to_end_s"}
FLIGHT_KEYS = {"capacity", "records_taken", "ring_sizes", "dumps"}
FLIGHT_DUMP_KEYS = {"reason", "time", "time_s", "records"}
FLIGHT_RECORD_KEYS = {"time", "time_s", "site", "kind", "detail"}


def build_report():
    salary = build_salary_scenario("propagation")
    cm = salary.cm
    cm.scenario.obs.enable_tracing()
    flight = cm.scenario.obs.enable_flight()
    cm.spontaneous_write("salary1", ("e1",), 50_000.0)
    cm.run(seconds(30))
    flight.dump("schema-test", cm.scenario.sim.now)
    return cm.run_report()


class TestRunReportSchema:
    def test_top_level_keys_pinned_in_order(self):
        data = build_report().to_dict()
        assert list(data) == TOP_LEVEL_KEYS

    def test_section_key_sets(self):
        data = build_report().to_dict()
        assert set(data["dispatch"]["total"]) == DISPATCH_TOTAL_KEYS
        for site in ("sf", "ny"):
            assert set(data["dispatch"][site]) == DISPATCH_TOTAL_KEYS
        assert set(data["network"]) == NETWORK_KEYS
        for channel in data["network"]["channels"]:
            assert set(channel) == CHANNEL_KEYS
        assert set(data["failures"]) == FAILURES_KEYS
        for entry in data["guarantees"]:
            assert set(entry) == GUARANTEE_KEYS
        for entry in data["constraints"]:
            assert set(entry) == CONSTRAINT_KEYS
        for entry in data["propagation"]:
            assert set(entry) == PROPAGATION_KEYS
        for entry in data["translators"]:
            assert set(entry) == TRANSLATOR_KEYS
        assert set(data["scheduler"]) == SCHEDULER_KEYS
        assert set(data["traces"]) == TRACES_KEYS

    def test_flight_section_schema(self):
        data = build_report().to_dict()
        flight = data["flight"]
        assert set(flight) == FLIGHT_KEYS
        assert flight["dumps"], "the explicit dump should appear"
        for dump in flight["dumps"]:
            assert set(dump) == FLIGHT_DUMP_KEYS
            for record in dump["records"]:
                assert set(record) == FLIGHT_RECORD_KEYS

    def test_whole_report_is_json_round_trippable(self):
        report = build_report()
        parsed = json.loads(report.to_json())
        assert list(parsed) == TOP_LEVEL_KEYS
        assert parsed["flight"]["dumps"][0]["reason"] == "schema-test"
