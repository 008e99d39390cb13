"""Trace hot-path scaling benchmarks.

Sweeps event count x traced-item count and asserts the two scaling claims
of the copy-on-write trace layer:

- per-event ``record()`` cost is flat in the traced-item count (doubling
  items at a fixed event count changes per-event cost by < 1.5x) — the
  old implementation snapshotted two full interpretation dicts per event,
  so its per-event cost grew linearly with the item count;
- the query bundle (``writes_to`` / ``events_of_kind`` / ``refs_of_family``
  / ``timeline`` / ``validate_trace``) scales near-linearly in the event
  count (2x the events costs well under 3x the wall time).  Every write has
  one generated follow-up, all in one (trigger site, site) group, so
  validation runs Appendix-A properties 5-7 on half the trace; a fill of
  spontaneous writes only never reaches them, which is how a pairwise
  property-7 loop once passed this bound.

Wall-clock assertions are deliberately generous; the *exact* work counts
are asserted via the trace's probe counters (``ExecutionTrace.stats()``),
which is where O(1)-per-event is actually proven.  Results are persisted
to ``BENCH_trace_scale.json``.
"""

import time

from bench_helpers import update_bench_json

from repro.core.dsl import parse_rule
from repro.core.events import EventKind, notify_desc, spontaneous_write_desc
from repro.core.items import DataItemRef, item
from repro.core.timebase import seconds
from repro.core.trace import ExecutionTrace, validate_trace

FAMILY = "F"
RULE = parse_rule("Ws(F(n), a, b) -> [1] N(F(n), b)", name="announce")


def _refs(n_items: int) -> list[DataItemRef]:
    return [item(FAMILY, f"i{index}") for index in range(n_items)]


def _fill(trace: ExecutionTrace, refs: list[DataItemRef], n_events: int) -> None:
    """Record ``n_events`` events: writes, each announced by ``RULE``."""
    clock = 0
    n_items = len(refs)
    for index in range(n_events // 2):
        ref = refs[index % n_items]
        clock += seconds(0.5)
        value = index % 7
        write = trace.record(
            clock,
            "s",
            spontaneous_write_desc(ref, trace.current_value(ref), value),
        )
        trace.record(
            clock + seconds(0.25),
            "s",
            notify_desc(ref, value),
            rule=RULE,
            trigger=write,
        )
    trace.close(clock + seconds(10))


def _record_wall(n_events: int, n_items: int, rounds: int = 5) -> float:
    """Min-of-N wall seconds to record ``n_events`` over ``n_items`` items."""
    best = float("inf")
    for _ in range(rounds):
        trace = ExecutionTrace()
        refs = _refs(n_items)
        started = time.perf_counter()
        _fill(trace, refs, n_events)
        best = min(best, time.perf_counter() - started)
    return best


def _query_wall(trace: ExecutionTrace, refs: list[DataItemRef]) -> float:
    """Wall seconds for one pass of every indexed query plus validation."""
    started = time.perf_counter()
    total_writes = 0
    for ref in refs:
        total_writes += sum(1 for _ in trace.writes_to(ref))
        trace.timeline(ref)
    assert total_writes == len(trace.events) // 2
    assert (
        sum(1 for _ in trace.events_of_kind(EventKind.SPONTANEOUS_WRITE))
        == total_writes
    )
    assert len(trace.generated_events) == total_writes
    assert len(trace.refs_of_family(FAMILY)) == len(refs)
    assert validate_trace(trace, [RULE]) == []
    return time.perf_counter() - started


def test_record_cost_flat_when_items_double():
    """Per-event record() cost must not grow with the traced-item count."""
    n_events = 4000
    _record_wall(n_events, 64, rounds=1)  # warm-up
    per_event: dict[int, float] = {}
    for n_items in (64, 128):
        wall = _record_wall(n_events, n_items)
        per_event[n_items] = wall / n_events
        update_bench_json(
            "trace_scale",
            f"record_{n_events}ev_{n_items}items",
            {
                "events": n_events,
                "items": n_items,
                "wall_seconds": wall,
                "per_event_seconds": wall / n_events,
                "events_per_second": n_events / wall,
            },
        )
    ratio = per_event[128] / per_event[64]
    update_bench_json(
        "trace_scale",
        "record_item_doubling_ratio",
        {"ratio": ratio, "bound": 1.5},
    )
    assert ratio < 1.5, (
        f"per-event record() cost grew {ratio:.2f}x when the item count "
        f"doubled ({per_event[64] * 1e6:.2f}us -> {per_event[128] * 1e6:.2f}us)"
    )


def test_record_and_queries_scale_near_linearly_in_events():
    """2x the events must cost well under 3x the wall time, end to end."""
    n_items = 32
    walls: dict[int, dict[str, float]] = {}
    _record_wall(2000, n_items, rounds=1)  # warm-up
    for n_events in (2000, 4000):
        record_wall = query_wall = float("inf")
        stats: dict[str, int] = {}
        for _ in range(3):
            trace = ExecutionTrace()
            refs = _refs(n_items)
            started = time.perf_counter()
            _fill(trace, refs, n_events)
            record_wall = min(record_wall, time.perf_counter() - started)
            query_wall = min(query_wall, _query_wall(trace, refs))
            stats = trace.stats()
        # Exact work accounting: every write journaled once, every write
        # folded into its item's timeline exactly once, and neither the
        # queries nor the fused validator ever materialized a full
        # interpretation dict.
        assert stats["events_recorded"] == n_events
        assert stats["state_versions"] == n_events // 2
        assert stats["timeline_extend_steps"] == n_events // 2
        assert stats["interpretation_materializations"] == 0

        walls[n_events] = {"record": record_wall, "queries": query_wall}
        update_bench_json(
            "trace_scale",
            f"end_to_end_{n_events}ev_{n_items}items",
            {
                "events": n_events,
                "items": n_items,
                "record_wall_seconds": record_wall,
                "query_wall_seconds": query_wall,
                "stats": stats,
            },
        )
    for stage in ("record", "queries"):
        ratio = walls[4000][stage] / max(walls[2000][stage], 1e-9)
        update_bench_json(
            "trace_scale",
            f"{stage}_event_doubling_ratio",
            {"ratio": ratio, "bound": 3.0},
        )
        assert ratio < 3.0, (
            f"{stage} wall time grew {ratio:.2f}x when the event count "
            f"doubled — super-linear scaling"
        )


def test_timeline_incremental_work_is_exact():
    """Interleaved record+timeline does O(1) extend work per new write."""
    trace = ExecutionTrace()
    ref = item(FAMILY, "hot")
    n = 500
    clock = 0
    for index in range(n):
        clock += seconds(1)
        trace.record(
            clock,
            "s",
            spontaneous_write_desc(ref, trace.current_value(ref), index),
        )
        trace.timeline(ref)
    stats = trace.stats()
    # Each of the N calls consumed exactly the one write appended since the
    # previous call — N steps total, not N*(N+1)/2 as a full rebuild would.
    assert stats["timeline_extend_steps"] == n
    update_bench_json(
        "trace_scale",
        "timeline_incremental_probe",
        {
            "interleaved_calls": n,
            "timeline_extend_steps": stats["timeline_extend_steps"],
            "timeline_builds": stats["timeline_builds"],
            "timeline_cache_hits": stats["timeline_cache_hits"],
        },
    )
