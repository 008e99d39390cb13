#!/usr/bin/env python
"""CI soundness sweep for the race sanitizer.

*Proc-runtime equivalence* (seeds 0/1/2): each seeded salary scenario runs
on the sim kernel and on the proc runtime (every CM-Shell its own OS
process) with ``sanitize=True``, and must come back with **zero races**.
The parent-side sanitizer observes nothing for the proc side — each shell
process rebuilds its own — so the sim observation carries the soundness
check; the equivalence verdict itself must also hold, and a sanitizer that
observed no access at all is reported as a vacuous pass, not a clean one.

Exit status 1 on any flagged race (or a failed equivalence verdict),
0 otherwise.

Usage::

    python benchmarks/check_sanitizer_soundness.py [--seeds 0,1,2]
"""

from __future__ import annotations

import argparse
import sys


def check_proc_equivalence(seeds: list[int]) -> list[str]:
    from repro.runtime.equivalence import run_equivalence

    problems: list[str] = []
    for seed in seeds:
        report = run_equivalence(seed=seed, runtime="proc", sanitize=True)
        label = f"proc equivalence seed={seed}"
        if not report.ok:
            problems.append(f"{label}: verdict mismatch\n{report.render()}")
            continue
        races = report.sim.sanitizer_races
        accesses = report.sim.sanitizer_accesses
        if races:
            problems.append(f"{label}: {races} race(s) flagged")
        elif accesses == 0:
            problems.append(f"{label}: sanitizer observed nothing (vacuous)")
        else:
            print(f"ok: {label}: 0 races over {accesses} accesses")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0,1,2")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    problems = check_proc_equivalence(seeds)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        print("sanitizer soundness sweep: FAILED", file=sys.stderr)
        return 1
    print("sanitizer soundness sweep: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
