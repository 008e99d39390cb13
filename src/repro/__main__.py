"""Command-line entry point: ``python -m repro``.

Subcommands:

- ``experiments [ids...]`` — run the reproduction harness
  (same as ``python -m repro.experiments.runner``);
- ``menu`` — print the toolkit's interface and strategy menus with their
  paper-style rule shapes;
- ``watch <experiment>`` — run one experiment with the live telemetry
  dashboard (:mod:`repro.obs.watch`) streaming shell/channel/rule
  counters as the run progresses;
- ``demo`` — run the quickstart scenario inline.

The top-level ``--profile <experiment>`` flag runs one experiment under
:mod:`cProfile` and prints the top 25 functions by cumulative time — the
quickest way to see where an experiment's wall clock goes (historically:
rule dispatch, which is why the rule compiler exists).  ``--profile-out``
additionally saves the printed digest to a file for CI artifacts.

The top-level ``--lint <target>`` flag (or ``--lint --all``) statically
analyzes a wired configuration without running any events: it builds the
trigger graph and runs the CM-Lint check battery (see
:mod:`repro.analysis`) over the named experiment or ``example:<stem>``
script.  ``--json PATH`` writes the structured findings; the exit code is
1 when any error-severity finding survives the target's allowlist.
``--lint-codes`` prints the diagnostic-code reference, and ``--explain
CM501`` (any code) deep-dives one code: its registry meaning plus every
matching finding, suppressed ones included; an unknown code exits 2
before anything is linted.
"""

from __future__ import annotations

import argparse
import sys

from repro.runtime.api import RUNTIMES


def _profile_experiment(experiment: str, out_path: str | None) -> int:
    import cProfile
    import io
    import pstats

    from repro.experiments.runner import EXPERIMENTS

    if experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {experiment!r} "
            f"(have: {', '.join(EXPERIMENTS)})",
            file=sys.stderr,
        )
        return 2
    __, run = EXPERIMENTS[experiment]
    profiler = cProfile.Profile()
    profiler.enable()
    result = run()
    profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(25)
    digest = buffer.getvalue()
    verdict = getattr(result, "claim_holds", None)
    header = f"profile of experiment {experiment}"
    if verdict is not None:
        header += f" (verdict: {'REPRODUCED' if verdict else 'NOT REPRODUCED'})"
    print(header)
    print(digest)
    if out_path is not None:
        from pathlib import Path

        Path(out_path).write_text(
            header + "\n" + digest, encoding="utf-8"
        )
        print(f"profile written to {out_path}")
    return 0


def _lint(
    target: str | None,
    lint_all: bool,
    json_path: str | None,
    explain: str | None = None,
) -> int:
    from repro.analysis.diagnostics import CODES
    from repro.analysis.reporters import (
        render_explain,
        render_text,
        write_json,
    )
    from repro.analysis.targets import (
        available_targets,
        lint_all as run_all,
        lint_target,
    )
    from repro.core.errors import ConfigurationError

    if explain is not None:
        explain = explain.upper()
        if explain not in CODES:
            print(
                f"unknown diagnostic code {explain!r} "
                f"(known: {', '.join(sorted(CODES))})",
                file=sys.stderr,
            )
            return 2
    if target is not None:
        try:
            results = {target: lint_target(target)}
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    elif lint_all or explain is not None:
        # A bare --explain CODE surveys every target for the code.
        results = run_all()
    else:
        print(
            "--lint needs a target or --all "
            f"(targets: {', '.join(available_targets())})",
            file=sys.stderr,
        )
        return 2
    if explain is not None:
        print(render_explain(explain, results))
    else:
        print(render_text(results))
    if json_path is not None:
        path = write_json(results, json_path)
        print(f"lint report written to {path}")
    return 0 if all(report.ok for report in results.values()) else 1


def _print_lint_codes() -> None:
    from repro.analysis import describe_codes

    print(describe_codes())


def _print_menu() -> None:
    from repro.core.interfaces import (
        conditional_notify_interface,
        no_spontaneous_write_interface,
        notify_interface,
        periodic_notify_interface,
        read_interface,
        update_window_interface,
        write_interface,
    )
    from repro.core.dsl import parse_condition
    from repro.core.strategies import (
        arithmetic_maintenance,
        cached_propagation,
        eod_batch,
        eod_cleanup,
        monitor,
        polling,
        propagation,
    )
    from repro.core.timebase import clock_time, seconds

    print("Interface menu (Section 3.1.1):")
    samples = [
        write_interface("Y", seconds(2), params=("n",)),
        read_interface("X", seconds(1), params=("n",)),
        notify_interface("X", seconds(2), params=("n",)),
        conditional_notify_interface(
            "X", seconds(2), parse_condition("abs(b - a) > a * 0.1")
        ),
        periodic_notify_interface("X", seconds(300), seconds(1)),
        no_spontaneous_write_interface("Y", params=("n",)),
        update_window_interface("X", clock_time(17), clock_time(8)),
    ]
    for spec in samples:
        print(f"  {spec.kind.value:22s} {spec.rule}")
    print()
    print("Strategy menu (Sections 3.2, 4.2, 6, 7.1):")
    strategies = [
        propagation("X", "Y", seconds(5), params=("n",)),
        cached_propagation("X", "Y", seconds(5), dst_site="<dst>"),
        polling("X", "Y", seconds(60), seconds(5)),
        monitor("X", "Y", "<app>", seconds(1)),
        eod_batch("X", "Y", clock_time(17), seconds(2), params=("n",)),
        eod_cleanup("P", "C", clock_time(23), seconds(2)),
        arithmetic_maintenance("X", ("Y", "Z"), "<sx>", seconds(1)),
    ]
    for strategy in strategies:
        print(f"  {strategy}")
        print()
    print(
        "(The Demarcation Protocol, Section 6.1, is a programmed strategy: "
        "repro.protocols.demarcation.)"
    )


def main(argv: list[str] | None = None) -> int:
    """CLI dispatch; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the ICDE 1996 constraint-management "
        "toolkit paper.",
    )
    parser.add_argument(
        "--profile",
        metavar="EXPERIMENT",
        default=None,
        help="run one experiment under cProfile and print the top 25 "
        "functions by cumulative time",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="also write the profile digest to PATH (with --profile)",
    )
    parser.add_argument(
        "--lint",
        metavar="TARGET",
        nargs="?",
        const="",
        default=None,
        help="statically analyze a wired configuration (an experiment id "
        "or example:<stem>) without running it; exit 1 on error findings",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        dest="lint_all",
        help="with --lint: analyze every experiment and example script",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        dest="lint_json",
        default=None,
        help="with --lint: also write the findings as JSON to PATH",
    )
    parser.add_argument(
        "--lint-codes",
        action="store_true",
        help="print the CM-Lint diagnostic-code reference and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="deep-dive one diagnostic code (e.g. CM501): print its "
        "meaning plus every matching finding, suppressed ones included; "
        "combine with --lint TARGET to narrow the survey",
    )
    sub = parser.add_subparsers(dest="command")
    experiments = sub.add_parser(
        "experiments", help="run the reproduction experiments"
    )
    experiments.add_argument("ids", nargs="*")
    experiments.add_argument("--list", action="store_true")
    experiments.add_argument("--json", metavar="PATH", default=None)
    experiments.add_argument("--quiet", action="store_true")
    experiments.add_argument(
        "--runtime",
        choices=sorted(RUNTIMES),
        default=None,
        help="run under the 'sim' kernel (default) or the 'async' wire "
        "runtime (alias 'wire': asyncio shells over real sockets)",
    )
    experiments.add_argument(
        "--time-scale",
        type=float,
        default=None,
        metavar="FACTOR",
        help="with --runtime async: virtual seconds per wall second",
    )
    experiments.add_argument(
        "--seed", type=int, default=None,
        help="override every experiment's default seed",
    )
    watch = sub.add_parser(
        "watch",
        help="run one experiment with a live telemetry dashboard "
        "(shell/channel/rule counters streamed as the run progresses)",
    )
    watch.add_argument("experiment", help="experiment id (e.g. e1)")
    watch.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="virtual seconds between dashboard frames (default 1.0)",
    )
    watch.add_argument(
        "--runtime",
        choices=sorted(RUNTIMES),
        default=None,
        help="execution runtime (default sim)",
    )
    watch.add_argument(
        "--time-scale",
        type=float,
        default=None,
        metavar="FACTOR",
        help="with --runtime async: virtual seconds per wall second",
    )
    watch.add_argument("--seed", type=int, default=None)
    watch.add_argument(
        "--scale", type=float, default=1.0, metavar="FACTOR",
        help="multiply experiment workload sizes by FACTOR",
    )
    sub.add_parser("menu", help="print the interface and strategy menus")
    sub.add_parser("demo", help="run the quickstart scenario")
    args = parser.parse_args(argv)

    if args.lint_codes:
        _print_lint_codes()
        return 0
    if args.lint is not None or args.lint_all or args.explain is not None:
        target = args.lint if args.lint else None
        return _lint(target, args.lint_all, args.lint_json, args.explain)
    if args.lint_json is not None:
        parser.error("--json requires --lint")
    if args.profile is not None:
        return _profile_experiment(args.profile, args.profile_out)
    if args.profile_out is not None:
        parser.error("--profile-out requires --profile")
    if args.command == "experiments":
        from repro.experiments.runner import main as runner_main

        forwarded = list(args.ids)
        if args.list:
            forwarded.append("--list")
        if args.json is not None:
            forwarded.extend(["--json", args.json])
        if args.quiet:
            forwarded.append("--quiet")
        if args.runtime is not None:
            forwarded.extend(["--runtime", args.runtime])
        if args.time_scale is not None:
            forwarded.extend(["--time-scale", str(args.time_scale)])
        if args.seed is not None:
            forwarded.extend(["--seed", str(args.seed)])
        return runner_main(forwarded)
    if args.command == "watch":
        from repro.experiments.common import RunConfig
        from repro.obs.watch import DEFAULT_INTERVAL_S, watch_experiment

        config = RunConfig(
            runtime=args.runtime or "sim",
            seed=args.seed,
            scale=args.scale,
            time_scale=args.time_scale or 20.0,
        )
        return watch_experiment(
            args.experiment,
            config=config,
            interval_s=(
                args.interval if args.interval is not None
                else DEFAULT_INTERVAL_S
            ),
        )
    if args.command == "menu":
        _print_menu()
        return 0
    if args.command == "demo":
        import runpy
        from pathlib import Path

        quickstart = (
            Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
        )
        if quickstart.exists():
            runpy.run_path(str(quickstart), run_name="__main__")
            return 0
        print("examples/quickstart.py not found", file=sys.stderr)
        return 1
    parser.print_help()
    return 0


if __name__ == "__main__":
    sys.exit(main())
