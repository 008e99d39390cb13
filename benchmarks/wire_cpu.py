"""Where the socket hop's CPU goes, per op of ``fanout_wire``:
``python3 benchmarks/wire_cpu.py [--seed 11] [--scale 0.25] [--reps 3]``.

The wire workload runs on a real clock, so its run phase is mostly the loop
waiting for timers: CPU per op is the honest cost.  This prints, for the
workload's own time scale (x20) and for x400 (the same virtual run squeezed
into a twentieth of the wall time):

- CPU microseconds per op (median over ``--reps`` runs);
- the loop's busy share (CPU time over run wall time) and its iterations
  (``_run_once`` calls) per op;

then, from one more run at x20 under ``sys.setprofile``, the Python-level
calls per op by layer: codec, asyncio, clock, gateway/channels/transport,
core, cm, ris, and everything else.  Profiling slows the run, so the calls
are counted apart from the timed runs.

An op is one propagation that reached its replica (``Observation.ops``).
Nothing in ``benchmarks/e2e`` is edited: the workload is copied and its
``time_scale`` set on the copy.
"""

import argparse
import asyncio.base_events
import copy
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
import run  # noqa: E402  (benchmarks/e2e/run.py; nothing there is edited)

SCALES = (20.0, 400.0)

#: Layers by the source file a profiled frame runs in, first match wins.
LAYERS = (
    ("codec", ("repro/runtime/codec.py",)),
    ("asyncio", ("/asyncio/", "/selectors.py")),
    ("clock", ("repro/runtime/clock.py",)),
    (
        "gateway/channels/transport",
        (
            "repro/runtime/gateway.py",
            "repro/runtime/channels.py",
            "repro/runtime/transport.py",
            "repro/runtime/jsonrpc.py",
        ),
    ),
    ("core", ("repro/core/",)),
    ("cm", ("repro/cm/",)),
    ("ris", ("repro/ris/",)),
)


def layer_of(filename: str) -> str:
    filename = filename.replace(os.sep, "/")
    for layer, parts in LAYERS:
        if any(part in filename for part in parts):
            return layer
    return "other"


def workload_at(time_scale: float):
    workload = copy.copy(run.WORKLOADS["fanout_wire"])
    workload.time_scale = time_scale
    return workload


def timed(time_scale: float, seed: int, scale: float) -> dict:
    """One run: CPU seconds, wall seconds, loop iterations and ops."""
    workload = workload_at(time_scale)
    state = workload.setup(seed, scale)
    iterations = [0]
    run_once = asyncio.base_events.BaseEventLoop._run_once

    def counted(loop):
        iterations[0] += 1
        return run_once(loop)

    asyncio.base_events.BaseEventLoop._run_once = counted
    try:
        cpu, wall = time.process_time(), time.perf_counter()
        workload.run(state)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    finally:
        asyncio.base_events.BaseEventLoop._run_once = run_once
    obs = workload.observe(state, workload.verdict(state))
    return {"cpu": cpu, "wall": wall, "iterations": iterations[0], "ops": obs.ops}


def profiled(time_scale: float, seed: int, scale: float) -> tuple[Counter, int]:
    """One run under ``sys.setprofile``: Python calls per layer, and ops."""
    workload = workload_at(time_scale)
    state = workload.setup(seed, scale)
    counts: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            counts[frame.f_code.co_filename] += 1

    sys.setprofile(profiler)
    try:
        workload.run(state)
    finally:
        sys.setprofile(None)
    obs = workload.observe(state, workload.verdict(state))
    layers: Counter = Counter()
    for filename, count in counts.items():
        layers[layer_of(filename)] += count
    return layers, obs.ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", type=float, default=run.DEFAULT_SCALE)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"{'time scale':>10} {'cpu us/op':>10} {'loop busy':>10} {'iter/op':>8}")
    for time_scale in SCALES:
        runs = [timed(time_scale, args.seed, args.scale) for __ in range(args.reps)]

        def median(value) -> float:
            return statistics.median(value(r) for r in runs)

        print(
            f"{'x%g' % time_scale:>10}"
            f" {median(lambda r: 1e6 * r['cpu'] / r['ops']):>10.0f}"
            f" {median(lambda r: r['cpu'] / r['wall']):>10.0%}"
            f" {median(lambda r: r['iterations'] / r['ops']):>8.1f}"
        )
    layers, ops = profiled(SCALES[0], args.seed, args.scale)
    print(f"python calls per op at x{SCALES[0]:g}, {ops} ops:")
    for layer in [name for name, __ in LAYERS] + ["other"]:
        print(f"  {layer:<28} {layers[layer] / ops:>8.1f}")
    print(f"  {'total':<28} {sum(layers.values()) / ops:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
