"""The whole-constraint-path benchmark: one command, two levels.

**One measurement** (the benchmark contract's protocol; also what every
child of a full run executes)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload from the seed, warms up at 1/50 scale, then repeats
set-up / run / verdict for about ``S`` seconds and prints every metric by
name with its unit; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0`` (ledger never installed), the per-layer ledger with
``--trace 1``.

**A full run** (no ``--trace``)::

    python3 benchmarks/e2e/run.py [--seed N] [--scale F] [--reps K]
        [--workload NAME] [--traced] [--json OUT] [--record]

spawns ``K`` such measurements per workload, each in a fresh interpreter,
one at a time and interleaved round-robin across workloads, then prints
median / quartiles / n per (workload, metric).  ``compare.py`` judges two
``--json`` files against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"{ROOT}: not a checkout of the toolkit (src/repro, BENCHMARK.json)")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from ledger import Ledger  # noqa: E402
from refspeed import REFERENCE_S, kernel_time  # noqa: E402
from workloads import PLANTS, WORKLOADS, plant, score  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: ``--scale 1`` is the size each workload was designed at (timed run phase
#: of 3-6 s on a 2-CPU box).  The default is a quarter of it: the contract
#: allows 25 s per measurement including warm-up, and a measurement is only
#: steady when it reports the median of several repetitions.
DEFAULT_SCALE = 0.25
WARMUP_SCALE = 1 / 50
MIN_REPS = 2
#: End-to-end metrics reported beside the contract's: deterministic under
#: the seed (gated by exact equality in compare.py) or always 0 when the
#: run is correct, so neither can carry a relative bound.
EXTRA_UNITS = {
    "prop_vlatency_p50_s": "s",
    "prop_vlatency_p99_s": "s",
    "failure_share": "share",
    # Machine speed during the measurement, 1.0 = the reference box.
    "host_speed": "share",
}


#: Wire latencies are summarised per window of this many consecutive
#: propagations (0.125 s of wall at 400 propagations/s).
QUIET_WINDOW = 50


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def quiet_window(runs, fraction: float) -> float:
    """The percentile in the quietest window: each run's latencies (in
    completion order) are cut into windows of ``QUIET_WINDOW``, and the
    lowest per-window percentile over all runs is reported.

    The shared host delays timer wake-ups for stretches of seconds to
    minutes (the whole-run p90 read 10.3-63 ms over five minutes of the same
    code); the delays only ever add, so the quietest of ~80 windows is what
    the program itself does, within 5-8 % from one measurement to the next
    (README, "Quiet-window latencies", has the estimators compared).  A
    change that slows every propagation moves every window; a pause rarer
    than one window in 80 does not show here but in the ledger's whole-run
    ``runtime.prop_latency_p99_ms``.  A run shorter than one window is one
    window.
    """
    return min(
        percentile(ms[start : start + QUIET_WINDOW], fraction)
        for ms in runs
        for start in range(0, max(len(ms) - QUIET_WINDOW, 0) + 1, QUIET_WINDOW)
    )


# -- one repetition -------------------------------------------------------------


def repetition(workload, seed: int, scale: float, ledger: Ledger | None = None):
    """Set up, run and judge the workload once; returns the phase timings,
    the observation and (traced) the per-layer metrics.

    Timings are in reference seconds: the reference kernel is timed before
    set-up, between run and verdict, and after the verdict, and each phase's
    wall time is scaled by the machine's speed around it (see
    :mod:`refspeed`).  A wire run is paced by its clock and
    mostly idle, so its run phase (wall, latencies, CPU time) stays as
    measured.
    """
    gc.collect()
    kernel = [kernel_time()]
    started = time.perf_counter()
    state = workload.setup(seed, scale)
    setup_wall = time.perf_counter() - started
    if ledger is not None:
        ledger.take()  # the set-up phase's spans are not reported
    cpu_started = time.process_time()
    started = time.perf_counter()
    if ledger is None:
        workload.run(state)
    else:
        workload.advance(state)
        ledger.span("trace.flush", workload.settle, state)
    run_wall = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    ran = ledger.take() if ledger is not None else None
    kernel.append(kernel_time())
    started = time.perf_counter()
    verdict = workload.verdict(state)
    verdict_wall = time.perf_counter() - started
    kernel.append(kernel_time())
    obs = workload.observe(state, verdict)
    before, after = (
        2 * REFERENCE_S / (kernel[i] + kernel[i + 1]) for i in range(2)
    )
    timing = {
        "setup_s": setup_wall * before,
        "run_s": run_wall if workload.wire else run_wall * before,
        "verdict_s": verdict_wall * after,
        "cpu_s": cpu_s if workload.wire else cpu_s * before,
        "run_wall_s": run_wall,
        "host_speed": (before + after) / 2,
    }
    layers = None
    if ledger is not None:
        judged = ledger.take()
        state.cm.run_report()
        reported = ledger.take()
        layers = layer_metrics(workload, state, obs, timing, ran, judged, reported)
    return timing, obs, layers


def layer_metrics(workload, state, obs, timing, ran, judged, reported) -> dict:
    """The per-layer ledger of one traced repetition, from the totals of
    its run, verdict and report phases."""
    self_s, inclusive, calls = ran.self_s, ran.inclusive, ran.calls
    cm = state.cm
    shells = cm.stats()["total"]
    translators = {
        id(t): t for shell in cm.shells.values() for t in shell.translators.values()
    }.values()
    sim = cm.scenario.sim
    network = cm.scenario.network
    parses = calls["ris.parse"]
    agents = ()
    if "protocol" in state.extra:
        protocol = state.extra["protocol"]
        agents = (protocol.x_agent.stats, protocol.y_agent.stats)
    attempts = sum(a.updates_attempted for a in agents)
    run_s = timing["run_wall_s"]
    metrics = {
        "workloads.updates": calls["workloads.generate"],
        "workloads.self_s": self_s["workloads.generate"],
        "ris.execute_calls": calls["ris.execute"],
        "ris.select_calls": ran.sql_verbs.get("SELECT", 0),
        "ris.update_calls": ran.sql_verbs.get("UPDATE", 0),
        "ris.insert_calls": ran.sql_verbs.get("INSERT", 0),
        "ris.execute_self_s": self_s["ris.execute"],
        "ris.parse_calls": parses,
        "ris.parse_s": inclusive["ris.parse"],
        "ris.parse_repeat_share": (
            1 - len(ran.sql_texts) / parses if parses else 0.0
        ),
        "translator.writes": sum(t.writes_requested for t in translators),
        "translator.reads": sum(t.reads_requested for t in translators),
        "translator.notifies": sum(t.notifications_delivered for t in translators),
        "translator.spontaneous": calls["translator.spontaneous"],
        "translator.write_self_s": self_s["translator.write"],
        "translator.read_self_s": self_s["translator.read"],
        "translator.notify_self_s": self_s["translator.notify"],
        "translator.spontaneous_self_s": self_s["translator.spontaneous"],
        "translator.failure_notices": sum(
            len(shell.failure_log) for shell in cm.shells.values()
        ),
        "shell.events_processed": shells["events_processed"],
        "shell.candidates_considered": shells["candidates_considered"],
        "shell.rules_fired": shells["rules_fired"],
        "shell.fired_per_candidate": (
            shells["rules_fired"] / shells["candidates_considered"]
            if shells["candidates_considered"]
            else 0.0
        ),
        "shell.batches": shells["batches_processed"],
        "shell.batch_events": shells["batch_events"],
        "shell.dispatch_self_s": self_s["shell.dispatch"],
        "shell.remote_fire_self_s": self_s["shell.remote_fire"],
        "sim.callbacks": sim.events_processed,
        "sim.scheduler_self_s": self_s["sim.scheduler"] + self_s["sim.timer"],
        "sim.net_messages": network.messages_sent,
        "sim.net_self_s": self_s["sim.net"],
        "demarcation.attempts": attempts,
        "demarcation.denied_share": (
            sum(a.updates_denied for a in agents) / attempts if attempts else 0.0
        ),
        "demarcation.requests": sum(a.requests_sent for a in agents),
        "demarcation.self_s": self_s["demarcation.protocol"],
        "trace.records": calls["trace.record"],
        "trace.events": len(cm.scenario.trace.events),
        "trace.record_self_s": self_s["trace.record"],
        "trace.record_batch_self_s": self_s["trace.record_batch"],
        "trace.flush_s": inclusive["trace.flush"],
        "verify.lint_s": judged.inclusive["verify.lint"],
        "verify.guarantees_s": judged.inclusive["verify.guarantees"],
        "verify.validity_s": judged.inclusive["verify.validity"],
        "verify.guarantees_checked": len(obs.guarantees),
        "verify.generated_events": len(cm.scenario.trace.generated_events),
        "obs.report_s": reported.inclusive["obs.report"],
        "ledger.unattributed_share": max(0.0, 1 - ran.covered / run_s),
        "prop_vlatency_p50_s": 0.0,
        "prop_vlatency_p99_s": 0.0,
    }
    if workload.has_vlatency:
        metrics["prop_vlatency_p50_s"] = percentile(obs.vlatencies, 0.50)
        metrics["prop_vlatency_p99_s"] = percentile(obs.vlatencies, 0.99)
    runtime = dict.fromkeys((n for n in PER_LAYER if n.startswith("runtime.")), 0.0)
    if workload.wire:
        channels = network.channel_stats().values()
        wire_ms = [
            h
            for h in cm.scenario.obs.metrics.series("wire_latency_ms")
            if h.count
        ]
        delivered = sum(h.count for h in wire_ms)
        runtime.update(
            {
                "runtime.frames": sum(c["frames_written"] for c in channels),
                "runtime.frames_coalesced": sum(
                    c["frames_coalesced"] for c in channels
                ),
                "runtime.wire_ms_mean": sum(h.mean * h.count for h in wire_ms)
                / delivered,
                "runtime.wire_ms_max": max(h.max for h in wire_ms),
                "runtime.resequencer_high_water": max(
                    c["resequencer_high_water"] for c in channels
                ),
                "runtime.codec_self_s": self_s["runtime.codec"],
                "runtime.generator_lag_p99_ms": percentile(
                    obs.generator_lag_ms, 0.99
                ),
                # Whole-run percentiles, host stalls included (the gated
                # prop_latency_* are quiet-window figures).
                "runtime.prop_latency_p50_ms": percentile(obs.wall_ms, 0.50),
                "runtime.prop_latency_p90_ms": percentile(obs.wall_ms, 0.90),
                "runtime.prop_latency_p99_ms": percentile(obs.wall_ms, 0.99),
                "runtime.loop_idle_share": max(0.0, 1 - timing["cpu_s"] / run_s),
            }
        )
    metrics.update(runtime)
    return metrics


# -- one measurement ------------------------------------------------------------


def repeat(workload, seed, scale, until, at_least, traced=False) -> list:
    """Repetitions until the next would overrun ``until`` (a
    ``perf_counter`` reading), and never fewer than ``at_least``.  A traced
    repetition installs a fresh ledger and removes it afterwards."""
    reps = []
    spent = 0.0
    while len(reps) < at_least or time.perf_counter() + spent / len(reps) < until:
        began = time.perf_counter()
        ledger = Ledger() if traced else None
        try:
            if ledger is not None:
                ledger.install()
            reps.append(repetition(workload, seed, scale, ledger))
        finally:
            if ledger is not None:
                ledger.uninstall()
        spent += time.perf_counter() - began
    return reps


def judge(workload, reps, planted=None) -> tuple[int, int, list[str]]:
    """Score every repetition; attempted and failed add up across them."""
    attempted = failed = 0
    failures: list[str] = []
    first = reps[0][1]
    for __, obs, __ in reps:
        if planted:
            plant(obs, planted)
        result = score(obs)
        attempted += result.attempted
        failed += result.failed
        failures.extend(result.failures)
        # Virtual time is deterministic: every repetition must agree.
        if not workload.wire and (
            obs.counts != first.counts or obs.vlatencies != first.vlatencies
        ):
            failed += 1
            failures.append(f"repetitions of one seed disagree: {obs.counts}")
    return attempted, failed, failures


def end_to_end(workload, reps, failure_share: float) -> dict[str, float]:
    """The measurement's end-to-end values: medians over its repetitions,
    of timings in reference seconds (see :func:`repetition`)."""
    timings = [timing for timing, __, __ in reps]
    ops = reps[0][1].ops

    def median(value) -> float:
        return statistics.median(value(t) for t in timings)

    values = {
        "setup_s": median(lambda t: t["setup_s"]),
        "ops_per_s": median(lambda t: ops / t["run_s"]),
        "verdict_s": median(lambda t: t["verdict_s"]),
        "total_s": median(lambda t: t["setup_s"] + t["run_s"] + t["verdict_s"]),
        "cpu_us_per_op": median(lambda t: 1e6 * t["cpu_s"] / ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failure_share": failure_share,
        "host_speed": median(lambda t: t["host_speed"]),
    }
    if workload.wire:
        runs = [obs.wall_ms for __, obs, __ in reps]
        values["prop_latency_p50_ms"] = quiet_window(runs, 0.50)
        values["prop_latency_p90_ms"] = quiet_window(runs, 0.90)
    else:
        # Virtual time has no wall-clock span per propagation: a batch has
        # one completion time, so both fields carry its per-op share.
        values["prop_latency_p50_ms"] = values["prop_latency_p90_ms"] = median(
            lambda t: 1e3 * t["run_s"] / ops
        )
        if workload.has_vlatency:
            vlatencies = reps[0][1].vlatencies
            values["prop_vlatency_p50_s"] = percentile(vlatencies, 0.50)
            values["prop_vlatency_p99_s"] = percentile(vlatencies, 0.99)
    return values


def measure(name, seed, scale, seconds, trace, planted=None) -> int:
    """Repeat the workload for about ``seconds``; print the result line."""
    workload = WORKLOADS[name]
    # Warm imports, compile caches and the reference kernel, untimed.
    state = workload.setup(seed, WARMUP_SCALE)
    workload.run(state)
    workload.observe(state, workload.verdict(state))
    del state
    kernel_time()
    deadline = time.perf_counter() + seconds
    if trace:
        # Half the time untraced (the overhead baseline), half traced.
        reps = repeat(workload, seed, scale, deadline - seconds / 2, 1)
        traced = repeat(workload, seed, scale, deadline, 1, traced=True)
    else:
        reps = repeat(workload, seed, scale, deadline, MIN_REPS)
        traced = []
    attempted, failed, failures = judge(workload, reps + traced, planted)
    values = end_to_end(workload, reps, failed / attempted)
    units = {**{n: m["unit"] for n, m in END_TO_END.items()}, **EXTRA_UNITS}
    reported = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    layers = {}
    if trace:
        # Self-times are wall seconds of the median traced repetition;
        # the overhead compares runs in reference seconds.
        ranked = sorted(traced, key=lambda rep: rep[0]["run_s"])
        timing, __, chosen = ranked[len(ranked) // 2]
        untraced_s = statistics.median(t["run_s"] for t, __, __ in reps)
        chosen["ledger.trace_overhead_share"] = timing["run_s"] / untraced_s - 1
        layers = {
            n: {"value": chosen[n], "unit": m["unit"]} for n, m in PER_LAYER.items()
        }
    for metric, entry in {**reported, **layers}.items():
        print(f"{name:<20} {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    for text in failures[:20]:
        print(f"{name:<20} FAILED {text}")
    detail = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "repetitions": len(reps) + len(traced),
        "counts": reps[0][1].counts,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": reported,
        "layers": layers,
    }
    print("DETAIL " + json.dumps(detail))
    contract = layers if trace else {n: reported[n] for n in END_TO_END}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": contract,
            }
        )
    )
    return 0 if failed == 0 else 1


# -- a full run -------------------------------------------------------------------


def child(name, args, trace: int) -> dict:
    """One measurement in a fresh interpreter; returns its DETAIL record."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--scale", str(args.scale),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    details = [
        line for line in done.stdout.splitlines() if line.startswith("DETAIL ")
    ]
    if not details:
        sys.exit(f"{name}: measurement died\n{done.stdout}{done.stderr}")
    return json.loads(details[-1][len("DETAIL ") :])


def summarize(values: list[float]) -> dict:
    """Median, quartiles and n of one metric's per-measurement values."""
    if len(values) > 1:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def full_run(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(args.reps):
        # Round-robin, so a noisy minute on a shared box spreads evenly.
        for name in names:
            print(f"[{rep + 1}/{args.reps}] {name}", file=sys.stderr, flush=True)
            runs[name].append(child(name, args, trace=0))
    traced = {}
    if args.traced or args.record:
        for name in names:
            print(f"[traced] {name}", file=sys.stderr, flush=True)
            traced[name] = child(name, args, trace=1)
    report = {
        "meta": {
            "commit": git_commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "seed": args.seed,
            "scale": args.scale,
            "reps": args.reps,
            "seconds": args.seconds,
        },
        "workloads": {},
    }
    failed_any = False
    for name in names:
        details = runs[name]
        entry = {
            "metrics": {},
            "counts": details[0]["counts"],
            "attempted": sum(d["attempted"] for d in details),
            "failed": sum(d["failed"] for d in details),
            "failures": [f for d in details for f in d["failures"]][:20],
        }
        if not WORKLOADS[name].wire and any(
            d["counts"] != entry["counts"] for d in details
        ):
            entry["failed"] += 1
            entry["failures"].append("counts differ between measurements")
        for metric, first in details[0]["metrics"].items():
            entry["metrics"][metric] = {
                "unit": first["unit"],
                **summarize([d["metrics"][metric]["value"] for d in details]),
            }
        if name in traced:
            entry["layers"] = traced[name]["layers"]
            entry["failed"] += traced[name]["failed"]
            entry["attempted"] += traced[name]["attempted"]
        failed_any = failed_any or entry["failed"] > 0
        report["workloads"][name] = entry
    print_report(report)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if args.record:
        with open(HERE / "history.jsonl", "a", encoding="utf-8") as history:
            history.write(json.dumps(history_line(report)) + "\n")
    return 1 if failed_any else 0


def print_report(report: dict) -> None:
    header = f"{'workload':<20} {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3} unit"
    print(header)
    print("-" * len(header))
    for name, entry in report["workloads"].items():
        for metric, s in entry["metrics"].items():
            print(
                f"{name:<20} {metric:<34} {s['median']:>14.6g} {s['q1']:>14.6g} "
                f"{s['q3']:>14.6g} {s['n']:>3} {s['unit']}"
            )
        print(
            f"{name:<20} {'failed / attempted':<34} "
            f"{entry['failed']:>14} {entry['attempted']:>14}"
        )
        for text in entry["failures"]:
            print(f"{name:<20} FAILED {text}")
        for metric, s in entry.get("layers", {}).items():
            print(f"{name:<20} {metric:<34} {s['value']:>14.6g} {'':>14} {'':>14} {'':>3} {s['unit']}")


def ledger_shares(layers: dict, top: int = 5) -> dict[str, float]:
    """The largest self-time shares of the traced run phase, by span."""
    spent = {
        metric: entry["value"]
        for metric, entry in layers.items()
        if metric.endswith("self_s") or metric == "trace.flush_s"
    }
    total = sum(spent.values())
    ranked = sorted(spent.items(), key=lambda item: -item[1])[:top]
    return {metric: round(value / total, 4) for metric, value in ranked if total}


def history_line(report: dict) -> dict:
    """One compact record of a full run, for the committed trajectory."""
    return {
        **report["meta"],
        "workloads": {
            name: {
                "medians": {
                    metric: s["median"] for metric, s in entry["metrics"].items()
                },
                "ledger_top5": ledger_shares(entry.get("layers", {})),
            }
            for name, entry in report["workloads"].items()
        },
    }


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11, help="develop on 11, confirm on 12")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one measurement; 1 = ledger on")
    parser.add_argument("--reps", type=int, default=5, help="measurements per workload (full run)")
    parser.add_argument("--traced", action="store_true", help="full run: add the ledger pass")
    parser.add_argument("--json", metavar="OUT", help="full run: write the report here")
    parser.add_argument("--record", action="store_true", help="full run: append to history.jsonl")
    parser.add_argument("--plant", choices=PLANTS, help="break one fact (self-test of the gate)")
    args = parser.parse_args(argv)
    if args.trace is None:
        return full_run(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return measure(
        args.workload, args.seed, args.scale, args.seconds, args.trace, args.plant
    )


if __name__ == "__main__":
    sys.exit(main())
