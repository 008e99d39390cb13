"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments.runner            # run everything
    python -m repro.experiments.runner e2 e4      # run selected experiments
    python -m repro.experiments.runner --list     # show what exists
    python -m repro.experiments.runner --json out.json --quiet e1

Each experiment prints its claim, a REPRODUCED / NOT REPRODUCED verdict, and
the table of measured rows (the reproduction's analogue of the paper's
evaluation output).  ``--json PATH`` additionally writes every result —
including each experiment's observability block and structured run report —
as one JSON document; ``--quiet`` suppresses the tables (verdict lines only).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from repro.experiments import (
    ablations,
    e1_propagation,
    e2_polling,
    e3_caching,
    e4_demarcation,
    e5_referential,
    e6_monitor,
    e7_periodic,
    e8_failures,
    e9_reconfig,
    e10_scale,
    e11_arithmetic,
)
from repro.experiments.common import ExperimentResult, RunConfig
from repro.runtime.api import RUNTIMES

EXPERIMENTS: dict[str, tuple[str, Callable[..., object]]] = {
    "e1": ("propagation strategy (Section 4.2)", e1_propagation.run),
    "e2": ("polling strategy (Section 4.2.3)", e2_polling.run),
    "e3": ("cached propagation (Section 3.2 fn. 3)", e3_caching.run),
    "e4": ("demarcation protocol (Section 6.1)", e4_demarcation.run),
    "e5": ("referential integrity (Section 6.2)", e5_referential.run),
    "e6": ("monitor strategy (Section 6.3)", e6_monitor.run),
    "e7": ("periodic guarantees (Section 6.4)", e7_periodic.run),
    "e8": ("failure handling (Section 5)", e8_failures.run),
    "e9": ("reconfiguration cost (Sections 4.2.3, 4.3)", e9_reconfig.run),
    "e10": ("scale-out (Sections 4.3, 7.2)", e10_scale.run),
    "e11": ("arithmetic decomposition (Section 7.1)", e11_arithmetic.run),
    "ablation-order": (
        "in-order delivery ablation (Appendix A)",
        ablations.run_in_order_ablation,
    ),
    "ablation-echo": (
        "trigger-echo suppression ablation",
        ablations.run_echo_ablation,
    ),
    "ablation-skew": (
        "clock-skew margins ablation (Section 7.2)",
        ablations.run_clock_skew_ablation,
    ),
}


def main(argv: list[str] | None = None) -> int:
    """Run the selected experiments; exit 1 if any claim fails to reproduce."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Reproduce the paper's per-scenario claims.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write all results (tables, observability, run reports) as JSON",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print one verdict line per experiment instead of full tables",
    )
    parser.add_argument(
        "--runtime",
        choices=sorted(RUNTIMES),
        default="sim",
        help="execution runtime: 'sim' (deterministic discrete-event kernel) "
        "or 'async' (alias 'wire': asyncio shells over real sockets)",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=20.0,
        metavar="FACTOR",
        help="with --runtime async: virtual seconds per wall second "
        "(default 20; higher is faster but shrinks the wall-clock "
        "headroom behind every timing bound)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override every experiment's default seed",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="multiply experiment workload sizes (entity counts) by FACTOR",
    )
    args = parser.parse_args(argv)
    if args.list:
        for key, (description, __) in EXPERIMENTS.items():
            print(f"{key:15s} {description}")
        return 0
    selected = args.experiments or list(EXPERIMENTS)
    unknown = [key for key in selected if key not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    config = RunConfig(
        runtime=args.runtime,
        seed=args.seed,
        scale=args.scale,
        time_scale=args.time_scale,
    )
    failures = 0
    collected: dict[str, dict] = {}
    for key in selected:
        __, run = EXPERIMENTS[key]
        result = run(config, **config.options)
        assert isinstance(result, ExperimentResult)
        if args.quiet:
            verdict = "REPRODUCED" if result.claim_holds else "NOT REPRODUCED"
            print(f"{key:15s} {verdict}")
        else:
            print(result.render())
            print()
        collected[key] = result.to_dict()
        if not result.claim_holds:
            failures += 1
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(collected, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if not args.quiet:
            print(f"wrote {args.json}")
    if failures:
        print(f"{failures} experiment(s) did NOT reproduce", file=sys.stderr)
        return 1
    print(f"all {len(selected)} experiment(s) reproduced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
