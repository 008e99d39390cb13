"""Guard on the package's public surface.

``repro.__all__`` lists only names that something outside the library
imports from the package root: an experiment, a ``benchmarks/`` script, an
example, or the CLI (``repro/__main__.py``).  A name none of them reaches
is imported from its own module instead, so an unreached export fails
here.  Every listed name must also resolve to a real attribute — a stale
re-export fails at import, not at a user's site.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def consumer_files() -> list[Path]:
    """The files whose references earn a name its place in ``__all__``."""
    return [
        *sorted((PACKAGE / "experiments").rglob("*.py")),
        *sorted((ROOT / "benchmarks").rglob("*.py")),
        *sorted((ROOT / "examples").glob("*.py")),
        PACKAGE / "__main__.py",
    ]


def referenced_names(path: Path) -> set[str]:
    """Every identifier a file names: bare names, attributes, imports."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_export_is_reached():
    files = consumer_files()
    assert len(files) > 20  # the scan found the experiments and benchmarks
    reached: set[str] = set()
    for path in files:
        reached |= referenced_names(path)
    unreached = [name for name in repro.__all__ if name not in reached]
    assert unreached == [], (
        f"exported from repro but reached by no experiment, benchmark, "
        f"example or CLI verb: {unreached}"
    )


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_runtime_surface_is_usable():
    from repro.runtime import (
        ChannelFaults,
        SimRuntime,
        WireFaultPlan,
        resolve_runtime,
    )

    # The runtime seam's key types, each from its own module.
    config = repro.RunConfig(runtime="sim", seed=7)
    assert config.resolve_seed(0) == 7
    runtime = resolve_runtime(config.runtime_spec())
    assert runtime.name == "sim"
    assert isinstance(runtime, SimRuntime)
    assert resolve_runtime("async").name == "async"
    faults = ChannelFaults(dup=0.1)
    assert WireFaultPlan(default=faults).for_channel("a", "b").dup == 0.1
