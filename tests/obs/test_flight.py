"""Tests for the flight recorder: bounded rings, dumps, and shell wiring."""

import pytest

from repro.cm.failures import FailureNotice
from repro.core.timebase import seconds
from repro.experiments.common import build_salary_scenario
from repro.obs import Instrumentation
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.sim.failures import FailureKind


class TestRings:
    def test_record_fills_per_site_rings(self):
        flight = FlightRecorder()
        flight.record("sf", "event", seconds(1), "W(x)")
        flight.record("ny", "fire", seconds(2), "rule-1")
        flight.record("sf", "event", seconds(3), "W(y)")
        assert flight.sites == ["ny", "sf"]
        assert flight.ring_sizes() == {"ny": 1, "sf": 2}
        assert len(flight) == 3
        assert flight.records_taken == 3

    def test_overflow_discards_oldest(self):
        flight = FlightRecorder(capacity=3)
        for i in range(10):
            flight.record("sf", "event", seconds(i), f"e{i}")
        assert len(flight) == 3
        assert flight.records_taken == 10
        details = [row["detail"] for row in flight.digest("sf")]
        assert details == ["e7", "e8", "e9"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_iter_yields_time_site_kind_detail(self):
        flight = FlightRecorder()
        flight.record("sf", "event", seconds(1), "x")
        assert list(flight) == [(seconds(1), "sf", "event", "x")]


class TestDigest:
    def test_merged_digest_is_time_ordered_across_sites(self):
        flight = FlightRecorder()
        flight.record("ny", "fire", seconds(2), "late")
        flight.record("sf", "event", seconds(1), "early")
        rows = flight.digest()
        assert [row["site"] for row in rows] == ["sf", "ny"]
        assert rows[0] == {
            "time": seconds(1),
            "time_s": 1.0,
            "site": "sf",
            "kind": "event",
            "detail": "early",
        }

    def test_detail_stringified_only_at_digest_time(self):
        class Loud:
            formatted = 0

            def __str__(self):
                Loud.formatted += 1
                return "loud"

        flight = FlightRecorder()
        flight.record("sf", "event", seconds(1), Loud())
        assert Loud.formatted == 0  # recording never formats
        assert flight.digest()[0]["detail"] == "loud"
        assert Loud.formatted == 1


class TestDump:
    def test_dump_freezes_rings_under_reason(self):
        flight = FlightRecorder()
        flight.record("sf", "event", seconds(1), "before")
        dump = flight.dump("failure:sf:src:logical@100", seconds(2))
        assert dump is not None
        assert dump["reason"] == "failure:sf:src:logical@100"
        assert dump["time_s"] == 2.0
        assert [row["detail"] for row in dump["records"]] == ["before"]
        assert flight.dumps == [dump]

    def test_dump_dedups_by_reason(self):
        flight = FlightRecorder()
        flight.record("sf", "event", seconds(1), "x")
        assert flight.dump("incident", seconds(2)) is not None
        assert flight.dump("incident", seconds(3)) is None
        assert flight.dump("other", seconds(3)) is not None
        assert len(flight.dumps) == 2

    def test_to_dict_is_the_run_report_form(self):
        flight = FlightRecorder(capacity=8)
        flight.record("sf", "event", seconds(1), "x")
        flight.dump("incident", seconds(2))
        data = flight.to_dict()
        assert data["capacity"] == 8
        assert data["records_taken"] == 1
        assert data["ring_sizes"] == {"sf": 1}
        assert [d["reason"] for d in data["dumps"]] == ["incident"]


class TestInstrumentationWiring:
    def test_disabled_by_default(self):
        obs = Instrumentation()
        assert not obs.enabled
        assert not obs.tracer.enabled
        assert obs.flight is None

    def test_enable_tracing_without_flight(self):
        obs = Instrumentation()
        obs.enable_tracing()
        assert obs.enabled
        assert obs.flight is None
        span = obs.tracer.start("op", "sf", 0)
        obs.tracer.finish(span, seconds(1))
        assert len(obs.tracer.spans) == 1

    def test_enable_flight_turns_on_obs_without_tracing(self):
        obs = Instrumentation()
        flight = obs.enable_flight()
        assert obs.enabled
        assert not obs.tracer.enabled  # flight-only: no span retention
        assert flight.capacity == DEFAULT_CAPACITY
        assert obs.enable_flight() is flight  # idempotent

    def test_flight_only_run_records_digests_but_no_spans(self):
        salary = build_salary_scenario("propagation")
        cm = salary.cm
        flight = cm.scenario.obs.enable_flight()
        cm.spontaneous_write("salary1", ("emp1",), 64_000.0)
        cm.run(seconds(30))
        assert cm.scenario.obs.tracer.spans == []
        kinds = {row["kind"] for row in flight.digest()}
        assert {"event", "net.send", "net.recv", "fire"} <= kinds
        assert set(flight.sites) == {"sf", "ny"}
        assert flight.dumps == []  # nothing went wrong

    def test_injected_failure_dumps_the_notice_and_the_guarantees(self):
        # The sim-runtime incident: a logical failure at ny mid-run freezes
        # the rings once for the notice and once per guarantee it took down.
        salary = build_salary_scenario("propagation")
        cm = salary.cm
        cm.scenario.obs.enable_flight()
        cm.spontaneous_write("salary1", ("e1",), 50_000.0)
        cm.scenario.sim.at(
            seconds(10),
            lambda: cm.shell("ny").report_failure(
                FailureNotice(
                    site="ny",
                    source_name="hq",
                    kind=FailureKind.LOGICAL,
                    time=seconds(10),
                    detail="injected outage",
                )
            ),
        )
        cm.run(seconds(30))
        report = cm.run_report()
        reasons = [dump["reason"] for dump in report.flight["dumps"]]
        assert any(reason.startswith("failure:ny:hq:") for reason in reasons)
        assert any(reason.startswith("guarantee:") for reason in reasons)
        for dump in report.flight["dumps"]:
            assert dump["records"], "dumps carry the last-N digest"
