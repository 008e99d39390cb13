"""Judge two full-run reports against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two sets of the same
commit), ``B`` the candidate.  One row per (workload, metric): both
medians with quartiles, the ratio B/A, and a verdict —

- ``improved``   every measurement of B reads better than every one of A,
  and the medians differ by more than A's own quartile spread;
- ``unchanged``  B's median is no worse than A's by more than the bound,
  and the spread is within the bound;
- ``unresolved`` the run-to-run spread is wider than the bound and the two
  sets overlap, so neither a regression nor its absence is shown;
- ``regressed``  B's median is worse than A's by more than the bound;
- ``changed``    a value that is exact under the seed (a count, a virtual
  latency) differs: a behaviour change, not noise.

Exit status 1 on any ``regressed`` or ``changed`` row, or when a workload's
``failure_share`` rose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
#: Deterministic under (seed, scale): compared for equality, not by a bound.
EXACT = ("prop_vlatency_p50_s", "prop_vlatency_p99_s")
#: ``failure_share`` is judged from failed / attempted below; ``host_speed``
#: describes the box, not the code.
UNGATED = ("failure_share", "host_speed")


def judge(a: dict, b: dict, better: str, bound: float) -> str:
    """The verdict for one metric, from two ``summarize`` records."""
    sign = 1 if better == "lower" else -1
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(
        (s["q3"] - s["q1"]) / s["median"] for s in (a, b) if s["median"]
    )
    if better == "lower":
        b_all_better = max(b["values"]) < min(a["values"])
        b_all_worse = min(b["values"]) > max(a["values"])
    else:
        b_all_better = min(b["values"]) > max(a["values"])
        b_all_worse = max(b["values"]) < min(a["values"])
    overlap = not (b_all_better or b_all_worse)
    if worse_by > bound:
        return "unresolved" if spread > bound and overlap else "regressed"
    if spread > bound and overlap:
        return "unresolved"
    a_spread = (a["q3"] - a["q1"]) / a["median"]
    if b_all_better and -worse_by > a_spread:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, A, B, ratio, verdict)`` and whether B fails."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    same_input = all(
        a["meta"][key] == b["meta"][key] for key in ("seed", "scale")
    )
    rows = []
    failed = False
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, sa in entry_a["metrics"].items():
            sb = entry_b["metrics"].get(metric)
            if sb is None or metric in UNGATED:
                continue
            if metric in EXACT:
                if not same_input:
                    continue
                verdict = "unchanged" if sa["median"] == sb["median"] else "changed"
            else:
                m = metrics[metric]
                verdict = judge(sa, sb, m["better"], m["bound"])
            rows.append((name, metric, sa, sb, sb["median"] / sa["median"], verdict))
            failed = failed or verdict in ("regressed", "changed")
        if same_input and entry_a["counts"] != entry_b["counts"]:
            rows.append((name, "counts", entry_a["counts"], entry_b["counts"], None, "changed"))
            failed = True
        share_a = entry_a["failed"] / entry_a["attempted"]
        share_b = entry_b["failed"] / entry_b["attempted"]
        verdict = "regressed" if share_b > share_a else "unchanged"
        rows.append((name, "failure_share", share_a, share_b, None, verdict))
        failed = failed or share_b > share_a
    return rows, failed


def render(value) -> str:
    if isinstance(value, dict) and "median" in value:
        return f"{value['median']:.5g} [{value['q1']:.5g}, {value['q3']:.5g}] n={value['n']}"
    if isinstance(value, float):
        return f"{value:.5g}"
    return str(value)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in paths)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, failed = compare(a, b, spec)
    print(f"{'workload':<20} {'metric':<22} {'A (base)':<38} {'B':<38} {'B/A':>8}  verdict")
    for name, metric, sa, sb, ratio, verdict in rows:
        shown = f"{ratio:8.3f}" if ratio is not None else " " * 8
        print(f"{name:<20} {metric:<22} {render(sa):<38} {render(sb):<38} {shown}  {verdict}")
    tally: dict[str, int] = {}
    for row in rows:
        tally[row[-1]] = tally.get(row[-1], 0) + 1
    print(", ".join(f"{count} {verdict}" for verdict, count in sorted(tally.items())))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
