"""Which phase of a benchmark repetition pays for the collector's full passes:
``python3 benchmarks/gc_phase.py --workload W [--seed 11]`` runs one real
``run.py`` measurement (``--trace 0``) under a ``gc.callbacks`` hook and prints,
per repetition (row 0 is the untimed warm-up), the generation-2 passes begun
inside ``setup`` / ``run`` / ``verdict`` as count/ms, and the GC-tracked objects
alive when each phase ended (thousands).  One pass costs more than a dispatch
workload's whole verdict, and how many tracked objects a phase leaves decides
where the next one lands: compare the parent's table and the change's.
"""

import argparse
import gc
import sys
import time
from pathlib import Path
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
import run  # noqa: E402  (benchmarks/e2e/run.py; nothing there is edited)

PHASES = ("setup", "run", "verdict")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    workload = run.WORKLOADS[args.workload]
    rows: list[dict[str, list]] = []
    now = [None, 0.0]  # the phase in progress, when the pass in progress began
    def on_gc(when, info):
        if info["generation"] == 2 and now[0] is not None:
            if when == "start":
                now[1] = time.perf_counter()
            else:
                cell = rows[-1][now[0]]
                cell[0] += 1
                cell[1] += 1e3 * (time.perf_counter() - now[1])

    def timed(name, inner):
        def phase(*args):
            if name == "setup":
                rows.append({p: [0, 0.0, 0] for p in PHASES})
            now[0] = name
            result = inner(*args)
            now[0] = None
            rows[-1][name][2] = len(gc.get_objects())
            return result
        return phase

    for name in PHASES:  # instance attributes shadow the class's methods
        setattr(workload, name, timed(name, getattr(workload, name)))
    gc.callbacks.append(on_gc)
    status = run.measure(args.workload, args.seed, run.DEFAULT_SCALE, args.seconds, 0)
    heading = "  ".join(f"{p:>17}" for p in PHASES)
    print(f"gen-2 passes, count/ms alive k  {heading}")
    for index, row in enumerate(rows):
        cells = "  ".join(
            f"{row[p][0]:>3}/{row[p][1]:<6.1f} {row[p][2] / 1e3:>6.1f}" for p in PHASES
        )
        print(f"repetition {index:>3}                  {cells}")
    return status


if __name__ == "__main__":
    sys.exit(main())
