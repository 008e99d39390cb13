"""Flight-recorder incident dump sample for the CI artifact upload.

Regenerates ``flight_dump_sample.json``: a real incident dump from a
failure-injection run, uploaded as a CI artifact so the dump format the
docs describe is always one click away.  The recorder's per-event cost is
held as a call count, not a clock, by
``tests/integration/test_call_budget.py::test_flight_recorder_calls_per_event``.
"""

import json

from bench_helpers import REPO_ROOT


def test_regenerate_flight_dump_sample():
    """A real incident dump for the CI artifact: the salary scenario with
    the flight recorder on, a logical failure injected mid-run, and the
    run report's flight section written to ``flight_dump_sample.json``."""
    from repro.cm.failures import FailureNotice
    from repro.core.timebase import seconds
    from repro.experiments.common import build_salary_scenario
    from repro.sim.failures import FailureKind

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
                detail="injected outage (benchmark sample)",
            )
        ),
    )
    cm.run(seconds(30))
    report = cm.run_report()
    assert report.flight["dumps"], "the injected failure must dump"

    path = REPO_ROOT / "flight_dump_sample.json"
    path.write_text(
        json.dumps(report.flight, indent=2, sort_keys=True, default=str)
        + "\n",
        encoding="utf-8",
    )
    sample = json.loads(path.read_text(encoding="utf-8"))
    reasons = [dump["reason"] for dump in sample["dumps"]]
    assert any(reason.startswith("failure:ny:hq:") for reason in reasons)
    assert any(reason.startswith("guarantee:") for reason in reasons)
