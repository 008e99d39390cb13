"""Shared plumbing for the benchmark harness.

Every experiment gets one benchmark: it runs the experiment at full scale
under ``pytest-benchmark`` timing, prints the regenerated result table (the
reproduction's analogue of the paper's evaluation output; run with ``-s`` to
see it), asserts the claim reproduced, and attaches the rows to the
benchmark JSON via ``extra_info``.

Each benchmark also persists a ``BENCH_<name>.json`` file at the repo root
(wall-clock seconds, the virtual-time cost, the dispatch counters, and the
result table), so benchmark runs leave a machine-readable artifact even
without the pytest-benchmark storage machinery — CI uploads these.

Experiments are deterministic, so a single round measures them faithfully;
``benchmark.pedantic`` keeps wall-clock time sane.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

from repro.experiments.common import ExperimentResult

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_json_path(name: str) -> Path:
    """Where ``BENCH_<name>.json`` lives (the repo root)."""
    return REPO_ROOT / f"BENCH_{name}.json"


def write_bench_json(name: str, payload: dict) -> Path:
    """Persist one benchmark's payload as ``BENCH_<name>.json``."""
    path = bench_json_path(name)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def update_bench_json(name: str, key: str, payload: dict) -> Path:
    """Merge one entry into ``BENCH_<name>.json`` (for multi-test files)."""
    path = bench_json_path(name)
    data: dict[str, Any] = {}
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            data = {}
    data[key] = payload
    return write_bench_json(name, data)


def _bench_name(run: Callable) -> str:
    module = run.__module__.rsplit(".", 1)[-1]
    suffix = run.__name__
    if suffix.startswith("run_"):
        suffix = suffix[len("run_"):]
    elif suffix == "run":
        suffix = ""
    return f"{module}_{suffix}" if suffix else module


def run_experiment_benchmark(
    benchmark, run: Callable[[], ExperimentResult]
) -> ExperimentResult:
    """Run one experiment under timing; assert its claim reproduced."""
    timing: dict[str, float] = {}

    def timed() -> ExperimentResult:
        # Peak-memory tracking rides along so BENCH JSONs record the
        # allocation trajectory across PRs, not just wall time.  tracemalloc
        # slows allocation, but every run pays the same tax, so wall-clock
        # numbers stay comparable between runs and against the baselines.
        nested = tracemalloc.is_tracing()
        if not nested:
            tracemalloc.start()
        started = time.perf_counter()
        try:
            result = run()
            timing["wall_seconds"] = time.perf_counter() - started
            timing["peak_memory_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            if not nested:
                tracemalloc.stop()
        return result

    result = benchmark.pedantic(timed, rounds=1, iterations=1)
    assert isinstance(result, ExperimentResult)
    print()
    print(result.render())
    benchmark.extra_info["experiment"] = result.experiment
    benchmark.extra_info["claim_holds"] = result.claim_holds
    benchmark.extra_info["rows"] = [
        [str(cell) for cell in row] for row in result.rows
    ]
    payload = result.to_dict()
    payload["wall_seconds"] = timing.get("wall_seconds")
    payload["peak_memory_bytes"] = timing.get("peak_memory_bytes")
    events_processed = (
        payload.get("observability", {})
        .get("dispatch", {})
        .get("events_processed")
    )
    wall = timing.get("wall_seconds")
    if events_processed and wall:
        payload["events_per_second"] = events_processed / wall
    write_bench_json(_bench_name(run), payload)
    assert result.claim_holds, result.render()
    return result
