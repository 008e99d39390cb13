"""The 100k events/sec throughput push: batched dispatch.

The headline benchmark for the batched hot path: a million-notification
workload (reduce with ``BENCH_THROUGHPUT_EVENTS``; CI smokes at 50k) is
driven through a single shell at batch sizes {1, 16, 256}, and the
min-of-N events/sec of each lands in ``BENCH_throughput.json``.

Two rates are reported per configuration, because the lazy trace makes
them genuinely different things:

- ``ingest`` — :meth:`~repro.cm.shell.CMShell.ingest_batch` end to end:
  time-order check, journal writes, matching, conditions, RHS firing,
  metrics.  Event materialization and trace-index maintenance are still
  pending (flush-on-read).
- ``settled`` — ingest plus the full flush: every Event object built and
  indexed, the trace ready for guarantee checking.  Measured at a reduced
  event count so the materialized-trace working set stays bounded.

Batch size 1 routes through the per-event specification path
(``trace.record`` + ``deliver_local_event``) — the unbatched baseline the
ISSUE's >=5x guard is measured against.

The rule mix installs one compiled per-family propagation-style
prohibition on a quarter of the families, so ~25% of events fire a rule
and the rest exercise the indexed miss path.
"""

import os
import time
import tracemalloc

from bench_helpers import throughput_stats, update_bench_json

from repro.cm import ConstraintManager, Scenario
from repro.core.dsl import parse_rule
from repro.workloads.generators import notification_stream

FAMILIES = 64
KEYS_PER_FAMILY = 16
FIRING_FAMILIES = 16  # one in four events fires a rule

EVENTS = int(os.environ.get("BENCH_THROUGHPUT_EVENTS", "1000000"))
ROUNDS = int(os.environ.get("BENCH_THROUGHPUT_ROUNDS", "2"))
#: Event count for the settled (full-flush) and peak-memory probes: large
#: enough to be meaningful, small enough that materializing every Event
#: object stays within a bounded working set.
SETTLE_EVENTS = min(EVENTS, 200_000)
MEMORY_EVENTS = min(EVENTS, 100_000)

BATCH_SIZES = (1, 16, 256)


def _build_shell():
    cm = ConstraintManager(Scenario(seed=0))
    cm.add_site("bench")
    shell = cm.shell("bench")
    for i in range(FIRING_FAMILIES):
        shell.install(
            parse_rule(f"N(fam{i}(n), b) -> [1] FALSE", name=f"r{i}")
        )
    return cm, shell


def _workload(count: int):
    return notification_stream(
        [f"fam{i}" for i in range(FAMILIES)],
        KEYS_PER_FAMILY,
        count,
        seed=0,
    )


def _ingest(shell, descs, batch: int) -> None:
    if batch <= 1:
        # The per-event specification path: one trace.record and one
        # deliver_local_event per descriptor.
        record = shell.trace.record
        deliver = shell.deliver_local_event
        site = shell.site
        for desc in descs:
            deliver(record(0, site, desc))
    else:
        ingest = shell.ingest_batch
        for start in range(0, len(descs), batch):
            ingest(descs[start : start + batch], time=0)


def _timed_round(descs, batch: int, settle: bool) -> float:
    cm, shell = _build_shell()
    started = time.perf_counter()
    _ingest(shell, descs, batch)
    if settle:
        assert len(shell.trace.events) >= len(descs)
    return time.perf_counter() - started


def _sweep_key(batch: int, count: int) -> str:
    # "_s1_": the key format of the checked-in baseline, whose entries
    # were recorded on this same single-dict configuration.
    return f"ingest_b{batch}_s1_n{count}"


def test_throughput_sweep():
    """The batch-size sweep, plus the ISSUE's two hard guards:
    best batched config >= 5x the per-event baseline (min-of-N), and
    >= 100k events/sec on the best configuration."""
    descs = _workload(EVENTS)
    settle_descs = descs[:SETTLE_EVENTS]
    rates: dict[int, float] = {}
    for batch in BATCH_SIZES:
        ingest_walls = [
            _timed_round(descs, batch, settle=False) for _ in range(ROUNDS)
        ]
        settled_walls = [
            _timed_round(settle_descs, batch, settle=True)
            for _ in range(ROUNDS)
        ]
        stats = throughput_stats(EVENTS, ingest_walls)
        stats["batch"] = batch
        stats["settled"] = throughput_stats(SETTLE_EVENTS, settled_walls)
        rates[batch] = stats["events_per_second"]
        update_bench_json("throughput", _sweep_key(batch, EVENTS), stats)

    baseline = rates[1]
    best_batch = max(rates, key=rates.get)
    best = rates[best_batch]
    update_bench_json(
        "throughput",
        "headline",
        {
            "events": EVENTS,
            "rounds": ROUNDS,
            "baseline_events_per_second": baseline,
            "best_events_per_second": best,
            "best_batch": best_batch,
            "speedup_vs_per_event": best / baseline,
        },
    )
    assert best >= 5.0 * baseline, (
        f"batched dispatch is only {best / baseline:.2f}x the per-event "
        f"baseline ({best:,.0f} vs {baseline:,.0f} events/sec); the "
        f"budget is 5x"
    )
    assert best >= 100_000, (
        f"best batch size {best_batch} reached only {best:,.0f} "
        f"events/sec; the target is 100k"
    )


def test_throughput_memory():
    """Peak-memory probe (separate from timing — tracemalloc taxes every
    allocation): the batched path must not cost more peak memory per event
    than the per-event path on the same settled workload."""
    descs = _workload(MEMORY_EVENTS)
    peaks: dict[str, int] = {}
    for label, batch in (("per_event", 1), ("batched", 256)):
        nested = tracemalloc.is_tracing()
        if not nested:
            tracemalloc.start()
        tracemalloc.reset_peak()
        _timed_round(descs, batch, settle=True)
        peaks[label] = tracemalloc.get_traced_memory()[1]
        if not nested:
            tracemalloc.stop()
    update_bench_json(
        "throughput",
        f"peak_memory_n{MEMORY_EVENTS}",
        {
            "events": MEMORY_EVENTS,
            "per_event_peak_bytes": peaks["per_event"],
            "batched_peak_bytes": peaks["batched"],
        },
    )
    # Generous bound: the lazy blocks must not balloon memory; they share
    # the same settled working set, so 1.5x covers transient slack.
    assert peaks["batched"] <= 1.5 * peaks["per_event"], (
        f"batched settled peak {peaks['batched']:,} bytes exceeds 1.5x "
        f"the per-event peak {peaks['per_event']:,} bytes"
    )
