"""Reachability probe: which functions of ``src/repro`` does anything call?

Each entry point below (the experiments on both runtimes, the CLI verbs,
the examples and the end-to-end benchmark workloads) runs in its own
subprocess under ``sys.setprofile`` and ``threading.setprofile``, which
record every ``src/repro`` code object called.  An ``ast`` walk of
``src/repro`` lists the functions defined there, and the probe compares
the ones no entry point reached with ``allowlist.txt``:

- an unreached function that is not listed fails the probe;
- a listed function that was reached, or that no longer exists, fails it
  too, so the list only shrinks.

A qualified name counts as reached only if every definition under it was
(a property's getter and setter share one name).  The list holds one
qualified name per line, under the header of its reason; see the file.

Run it from the repository root (about 4 minutes on 2 CPUs)::

    python tests/reachability/probe.py           # check against the list
    python tests/reachability/probe.py --list    # print every unreached name

It is not a pytest module and tier-1 does not run it.  Never run it under
``python -m repro --profile``: cProfile takes over the same hook.  Exit
codes of the entry points are reported, not judged: an experiment's
wall-clock claim may miss its bound under the probe's slowdown.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).with_name("allowlist.txt")

REASONS = (
    "specification",
    "error path",
    "paper artefact awaiting a consumer",
    "protocol/dunder",
    "--profile only",
)

WORKLOADS = (
    "fanout_sim",
    "polling_sim",
    "demarcation_sim",
    "dispatch_batched",
    "dispatch_per_event",
    "fanout_wire",
)


def entry_points(scratch: Path) -> list[list[str]]:
    """Each entry point's command line, after ``python``."""
    repro = ["-m", "repro"]
    points = [
        [*repro, "experiments", "--quiet", "--json", str(scratch / "report.json")],
        [*repro, "experiments", "--runtime", "async", "--time-scale", "50"]
        + ["e1", "e2", "e8"],
        [*repro, "--lint", "--all"],
        [*repro, "--lint-codes"],
        [*repro, "menu"],
        [*repro, "demo"],
        [*repro, "experiments", "--list"],
    ]
    points += [[str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    run = str(ROOT / "benchmarks" / "e2e" / "run.py")
    points += [
        [run, "--workload", workload, "--trace", "1", "--seconds", "1"]
        + ["--scale", "0.05"]
        for workload in WORKLOADS
    ]
    return points


# -- in the subprocess ------------------------------------------------------------


def record(out: str, argv: list[str]) -> None:
    """Run one entry point with the profile hook on; write what it called."""
    called: dict[int, object] = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called[id(code)] = code

    status = 0
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1], *argv[2:]]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path.insert(0, str(Path(argv[0]).parent))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exit_:
        status = exit_.code if isinstance(exit_.code, int) else 1
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        prefix = str(PACKAGE) + os.sep
        sites = sorted(
            {
                (code.co_filename, code.co_firstlineno)
                for code in called.values()
                if code.co_filename.startswith(prefix)
            }
        )
        Path(out).write_text(json.dumps(sites))
    sys.exit(status)


# -- in the probe -----------------------------------------------------------------


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> qualified name, for every
    function ``src/repro`` defines (a decorated one starts at its first
    decorator)."""
    found: dict[tuple[str, int], str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def visit(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = scope + child.name
                    lines = [child.lineno, *(d.lineno for d in child.decorator_list)]
                    found[(str(path), min(lines))] = f"{module}.{name}"
                    visit(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{scope}{child.name}.")
                else:
                    visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return found


def run_entry_point(argv: list[str], out: Path) -> tuple[list[str], int, set]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, __file__, "--record", str(out), "--", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=900,
    )
    if not out.exists():
        raise RuntimeError(f"{' '.join(argv)} recorded nothing:\n{completed.stderr}")
    sites = {tuple(site) for site in json.loads(out.read_text())}
    return argv, completed.returncode, sites


def unreached_names() -> set[str]:
    """Every qualified name some definition of which no entry point called."""
    defined = defined_functions()
    reached: set = set()
    with tempfile.TemporaryDirectory() as scratch_dir:
        scratch = Path(scratch_dir)
        points = entry_points(scratch)
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = pool.map(
                run_entry_point,
                points,
                [scratch / f"called-{i}.json" for i in range(len(points))],
            )
            for argv, status, sites in runs:
                print(f"exit {status}: {' '.join(argv)}", file=sys.stderr)
                reached |= sites
    return {name for site, name in defined.items() if site not in reached}


def read_allowlist() -> dict[str, str]:
    """Listed name -> its reason."""
    listed: dict[str, str] = {}
    reason = None
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            reason = line[1:-1]
            if reason not in REASONS:
                raise SystemExit(f"allowlist.txt:{number}: unknown reason {reason!r}")
        elif reason is None:
            raise SystemExit(f"allowlist.txt:{number}: {line!r} has no reason header")
        elif line in listed:
            raise SystemExit(f"allowlist.txt:{number}: {line!r} is listed twice")
        else:
            listed[line] = reason
    return listed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument(
        "--list", action="store_true", help="print every unreached name and exit"
    )
    parser.add_argument("argv", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record:
        record(args.record, args.argv)
    unreached = unreached_names()
    if args.list:
        print("\n".join(sorted(unreached)))
        return 0
    listed = read_allowlist()
    defined = set(defined_functions().values())
    problems = [
        f"unreached, not listed: {name}" for name in sorted(unreached - set(listed))
    ]
    for name in sorted(listed):
        if name not in defined:
            problems.append(f"listed, no longer defined: {name}")
        elif name not in unreached:
            problems.append(f"listed, but reached: {name}")
    print("\n".join(problems) or f"ok: {len(unreached)} unreached, all listed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
