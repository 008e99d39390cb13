"""Self-tests of the benchmark harness.  Not tier-1: run by explicit path,

    python3 -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
from ledger import Ledger  # noqa: E402
from workloads import WORKLOADS, plant, score  # noqa: E402

from repro.cm.shell import CMShell  # noqa: E402
from repro.core.trace import ExecutionTrace  # noqa: E402
from repro.ris.relational import RelationalDatabase  # noqa: E402
from repro.sim.scheduler import Simulator  # noqa: E402

SIM_WORKLOADS = [name for name, w in WORKLOADS.items() if not w.wire]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def observe(name: str, seed: int = 11, scale: float = 0.02):
    return run.repetition(WORKLOADS[name], seed, scale)[1]


def run_py(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        check=False,
        timeout=120,
    )


# -- a correctness gate that cannot fail is not a gate ---------------------------

PLANTED = [
    ("fanout_sim", "drop_write"),
    ("fanout_sim", "flip_verdict"),
    ("dispatch_batched", "alter_cell"),
]


@pytest.mark.parametrize("name, kind", PLANTED)
def test_planted_failure_is_scored(name, kind):
    obs = observe(name)
    clean = score(obs)
    assert clean.failed == 0 and clean.failure_share == 0.0, clean.failures
    broken = copy.deepcopy(obs)
    plant(broken, kind)
    result = score(broken)
    assert result.failed == 1 and result.failure_share > 0.0
    assert result.attempted == clean.attempted


@pytest.mark.parametrize("name, kind", PLANTED)
def test_planted_failure_fails_the_command(name, kind):
    done = run_py(
        "--workload", name, "--scale", "0.02", "--seconds", "0.5",
        "--trace", "0", "--plant", kind,
    )
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


# -- the full run ------------------------------------------------------------------


def test_full_run_smoke(tmp_path):
    out = tmp_path / "report.json"
    started = time.perf_counter()
    done = run_py(
        "--scale", "0.05", "--reps", "2", "--seconds", "1", "--json", str(out)
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60, f"smoke took {elapsed:.1f} s"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report["workloads"]) == [w["name"] for w in run.SPEC["workloads"]]
    known = set(run.END_TO_END) | set(run.EXTRA_UNITS)
    for name, entry in report["workloads"].items():
        assert NAME.fullmatch(name)
        assert entry["failed"] == 0, entry["failures"]
        assert set(run.END_TO_END) <= set(entry["metrics"]) <= known
        for metric, summary in entry["metrics"].items():
            assert NAME.fullmatch(metric)
            assert summary["n"] == 2
            if metric != "failure_share":
                assert summary["median"] > 0


def test_names_in_benchmark_json():
    names = [w["name"] for w in run.SPEC["workloads"]]
    assert names == list(WORKLOADS)
    for entry in run.SPEC["end_to_end"] + run.SPEC["per_layer"] + run.SPEC["workloads"]:
        assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64


# -- determinism ---------------------------------------------------------------------


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_same_seed_same_counts_and_virtual_latencies(name):
    first, again, other = observe(name), observe(name), observe(name, seed=12)
    assert (first.counts, first.vlatencies, first.reference) == (
        again.counts,
        again.vlatencies,
        again.reference,
    )
    assert (first.counts, first.vlatencies, first.reference) != (
        other.counts,
        other.vlatencies,
        other.reference,
    )


# -- the ledger ------------------------------------------------------------------------


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_ledger_attributes_the_run_phase(name):
    entry_points = [
        (Simulator, "at"),
        (Simulator, "run"),
        (CMShell, "ingest_batch"),
        (ExecutionTrace, "record"),
        (RelationalDatabase, "execute"),
    ]
    originals = [owner.__dict__[attr] for owner, attr in entry_points]
    ledger = Ledger()
    ledger.install()
    try:
        assert Simulator.__dict__["at"] is not originals[0]
        timing, obs, layers = run.repetition(WORKLOADS[name], 11, 0.05, ledger)
    finally:
        ledger.uninstall()
    assert [owner.__dict__[attr] for owner, attr in entry_points] == originals
    assert score(obs).failed == 0
    assert set(layers) | {"ledger.trace_overhead_share"} == set(run.PER_LAYER)
    assert layers["ledger.unattributed_share"] <= 0.10
    # Self-times partition the attributed wall: together with the
    # unattributed share they sum to the run phase.
    self_times = sum(
        value
        for metric, value in layers.items()
        if metric.endswith("self_s") or metric in ("ris.parse_s", "trace.flush_s")
    )
    attributed = timing["run_wall_s"] * (1 - layers["ledger.unattributed_share"])
    assert self_times == pytest.approx(attributed, rel=0.02)
    if name.startswith("dispatch_"):
        for metric, value in layers.items():
            if metric.startswith(("ris.", "translator.")):
                assert value == 0, metric
