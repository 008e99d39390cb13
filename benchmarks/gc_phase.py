"""Which phase of a benchmark repetition pays for the collector, and what the
run leaves for it: ``python3 benchmarks/gc_phase.py --workload W [--seed 11]``
runs one real ``run.py`` measurement (``--trace 0``) under a ``gc.callbacks``
hook and prints, per repetition (row 0 is the untimed warm-up) and per phase
(``setup`` / ``run`` / ``verdict``), the passes of each generation begun
inside it as count/ms, and the GC-tracked objects alive when the phase ended
(thousands).  A full pass costs more than a dispatch workload's whole
verdict, and how many tracked objects a phase leaves decides where the next
one lands: compare the parent's table and the change's.

Then three more repetitions at the same scale, outside the measurement,
print the GC-tracked objects one run phase leaves per recorded event,
counted after a ``gc.collect()`` on both sides of it (the collections would
move the passes the table above reports, so they are not taken there).
"""

import argparse
import gc
import sys
import time
from pathlib import Path
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
import run  # noqa: E402  (benchmarks/e2e/run.py; nothing there is edited)

PHASES = ("setup", "run", "verdict")
GENERATIONS = (0, 1, 2)
RETENTION_REPETITIONS = 3


def retention(workload, seed: int, scale: float) -> float:
    """GC-tracked objects one run phase leaves per recorded event."""
    state = workload.setup(seed, scale)
    gc.collect()
    before = len(gc.get_objects())
    workload.run(state)
    gc.collect()
    left = len(gc.get_objects()) - before
    return left / len(state.cm.scenario.trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    workload = run.WORKLOADS[args.workload]
    rows: list[dict[str, dict]] = []
    now = [None, 0.0]  # the phase in progress, when the pass in progress began

    def on_gc(when, info):
        if now[0] is None:
            return
        if when == "start":
            now[1] = time.perf_counter()
        else:
            cell = rows[-1][now[0]][info["generation"]]
            cell[0] += 1
            cell[1] += 1e3 * (time.perf_counter() - now[1])

    def timed(name, inner):
        def phase(*args):
            if name == "setup":
                rows.append({p: {g: [0, 0.0] for g in GENERATIONS} for p in PHASES})
            now[0] = name
            result = inner(*args)
            now[0] = None
            rows[-1][name]["alive"] = len(gc.get_objects())
            return result
        return phase

    for name in PHASES:  # instance attributes shadow the class's methods
        setattr(workload, name, timed(name, getattr(workload, name)))
    gc.callbacks.append(on_gc)
    status = run.measure(args.workload, args.seed, run.DEFAULT_SCALE, args.seconds, 0)
    gc.callbacks.remove(on_gc)
    for name in PHASES:
        delattr(workload, name)
    heading = "  ".join(f"{p:^35}" for p in PHASES)
    print(f"passes, count/ms per gen 0|1|2, alive k  {heading}")
    for index, row in enumerate(rows):
        cells = "  ".join(
            " ".join(f"{row[p][g][0]:>3}/{row[p][g][1]:<5.1f}" for g in GENERATIONS)
            + f" {row[p]['alive'] / 1e3:>6.1f}"
            for p in PHASES
        )
        print(f"repetition {index:>3}                         {cells}")
    for index in range(RETENTION_REPETITIONS):
        per_event = retention(workload, args.seed, run.DEFAULT_SCALE)
        print(f"retention {index}: {per_event:.3f} tracked objects left per event")
    return status


if __name__ == "__main__":
    sys.exit(main())
