#!/usr/bin/env python
"""Benchmark-regression guard for CI.

Compares a freshly generated ``BENCH_core_micro.json`` against the
checked-in baseline (``benchmarks/baseline_core_micro.json``) and fails
only on gross regressions: a benchmark must be more than ``TOLERANCE``
times slower than its baseline to trip the guard.  The tolerance is
deliberately generous — CI runners are noisy and these are single-round
smoke timings — so the guard catches accidental re-quadratification of a
hot path, not jitter.

Timings under ``MIN_SECONDS`` are ignored entirely: at sub-5ms scale a
cache hiccup alone can exceed the tolerance.

With no arguments every default (fresh, baseline) pair is checked —
currently the core micro-benchmarks; passing ``--fresh``/``--baseline``
restricts the run to that one explicit pair.

Usage::

    python benchmarks/check_bench_regression.py \
        [--fresh BENCH_core_micro.json] \
        [--baseline benchmarks/baseline_core_micro.json] \
        [--tolerance 3.0]

Exit status 1 on regression, 0 otherwise (missing baseline entries and
new benchmarks are reported but never fail).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 3.0
MIN_SECONDS = 0.005

#: (fresh, baseline) pairs checked when neither --fresh nor --baseline is
#: given.  Keep baselines at the scale CI regenerates the fresh file at.
DEFAULT_PAIRS = (
    (
        REPO_ROOT / "BENCH_core_micro.json",
        REPO_ROOT / "benchmarks" / "baseline_core_micro.json",
    ),
)


def _wall_seconds(entry: object) -> float | None:
    if isinstance(entry, dict):
        value = entry.get("wall_seconds")
        if isinstance(value, (int, float)):
            return float(value)
    return None


def _check_pair(
    fresh_path: Path, baseline_path: Path, tolerance: float
) -> list[str] | None:
    """Compare one (fresh, baseline) file pair.

    Returns the regressed benchmark names, or ``None`` when a file is
    missing (itself a failure — a vanished smoke output must not pass
    silently).
    """
    print(f"{fresh_path.name} vs {baseline_path.name}:")
    if not fresh_path.exists():
        print(
            f"FAIL: fresh benchmark file {fresh_path} not found "
            f"(run the benchmark smoke first)"
        )
        return None
    if not baseline_path.exists():
        print(f"FAIL: baseline file {baseline_path} not found")
        return None
    fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))

    regressions: list[str] = []
    for name, base_entry in sorted(baseline.items()):
        base_wall = _wall_seconds(base_entry)
        fresh_wall = _wall_seconds(fresh.get(name))
        if base_wall is None:
            continue  # baseline entry carries no timing (e.g. ratio guards)
        if fresh_wall is None:
            print(f"  note: {name}: missing from fresh run")
            continue
        floor = max(base_wall, MIN_SECONDS)
        ratio = fresh_wall / floor
        verdict = "REGRESSION" if ratio > tolerance else "ok"
        print(
            f"  {verdict}: {name}: {fresh_wall * 1e3:.2f}ms "
            f"vs baseline {base_wall * 1e3:.2f}ms ({ratio:.2f}x)"
        )
        if ratio > tolerance:
            regressions.append(name)
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  note: {name}: new benchmark (no baseline)")
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh",
        type=Path,
        default=None,
        help="freshly generated benchmark JSON (default: all known pairs)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="checked-in baseline JSON (default: all known pairs)",
    )
    parser.add_argument("--tolerance", type=float, default=TOLERANCE)
    args = parser.parse_args(argv)

    if args.fresh is not None or args.baseline is not None:
        pairs = [
            (
                args.fresh or DEFAULT_PAIRS[0][0],
                args.baseline or DEFAULT_PAIRS[0][1],
            )
        ]
    else:
        pairs = list(DEFAULT_PAIRS)

    failed = False
    regressions: list[str] = []
    for fresh_path, baseline_path in pairs:
        found = _check_pair(fresh_path, baseline_path, args.tolerance)
        if found is None:
            failed = True
        else:
            regressions.extend(found)

    if regressions:
        print(
            f"FAIL: {len(regressions)} benchmark(s) regressed more than "
            f"{args.tolerance:g}x: {', '.join(regressions)}"
        )
        return 1
    if failed:
        return 1
    print("benchmark regression guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
