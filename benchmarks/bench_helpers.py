"""Shared plumbing for the micro benchmarks.

Each benchmark persists a ``BENCH_<name>.json`` file at the repo root, so
benchmark runs leave a machine-readable artifact even without the
pytest-benchmark storage machinery — CI uploads these.  (The per-claim
experiments are not benchmarked here: ``python -m repro.experiments.runner``
reproduces all of them at full scale in a few seconds.)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

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
