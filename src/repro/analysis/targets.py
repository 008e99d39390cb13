"""Named lint targets: every experiment and example script, wired but not
run.

Each experiment module exposes ``build_for_lint()`` returning one wired
:class:`~repro.cm.manager.ConstraintManager` (or a list of them, for
experiments that sweep configurations); example scripts expose the same
hook and are loaded by file path, since ``examples/`` is not a package.  A
module may declare ``LINT_SUPPRESS = ("CM601", "CM501:rule-name", ...)`` as
its inline allowlist — suppressed findings stay visible in the report's
``suppressed`` section rather than disappearing.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path
from typing import Optional

from repro.analysis.diagnostics import LintReport
from repro.analysis.lint import lint_manager
from repro.analysis.reporters import merge_reports
from repro.core.errors import ConfigurationError

#: Experiment lint targets, mirroring ``experiments/runner.py`` ids.
EXPERIMENT_TARGETS: dict[str, str] = {
    "e1_propagation": "repro.experiments.e1_propagation",
    "e2_polling": "repro.experiments.e2_polling",
    "e3_caching": "repro.experiments.e3_caching",
    "e4_demarcation": "repro.experiments.e4_demarcation",
    "e5_referential": "repro.experiments.e5_referential",
    "e6_monitor": "repro.experiments.e6_monitor",
    "e7_periodic": "repro.experiments.e7_periodic",
    "e8_failures": "repro.experiments.e8_failures",
    "e9_reconfig": "repro.experiments.e9_reconfig",
    "e10_scale": "repro.experiments.e10_scale",
    "e11_arithmetic": "repro.experiments.e11_arithmetic",
    "ablations": "repro.experiments.ablations",
}


def examples_dir() -> Optional[Path]:
    """The repository's ``examples/`` directory, when running from a
    checkout (absent in installed distributions)."""
    candidate = Path(__file__).resolve().parents[3] / "examples"
    if candidate.is_dir() and any(candidate.glob("*.py")):
        return candidate
    return None


def example_targets() -> dict[str, Path]:
    """Example-script lint targets keyed as ``example:<stem>``."""
    directory = examples_dir()
    if directory is None:
        return {}
    return {
        f"example:{path.stem}": path
        for path in sorted(directory.glob("*.py"))
    }


def available_targets() -> list[str]:
    """All lintable target names (experiments first, then examples)."""
    return list(EXPERIMENT_TARGETS) + list(example_targets())


def _load_example(path: Path):
    spec = importlib.util.spec_from_file_location(
        f"repro_lint_example_{path.stem}", path
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lint_module(module) -> LintReport:
    builder = getattr(module, "build_for_lint", None)
    if builder is None:
        raise ConfigurationError(
            f"{module.__name__} has no build_for_lint() hook"
        )
    built = builder()
    managers = built if isinstance(built, (list, tuple)) else [built]
    suppress = tuple(getattr(module, "LINT_SUPPRESS", ()))
    reports = [lint_manager(cm, suppress=suppress) for cm in managers]
    for cm in managers:
        cm.stop()  # wiring starts timers; leave nothing scheduled behind
    return merge_reports(reports)


def lint_target(name: str) -> LintReport:
    """Lint one named target."""
    if name in EXPERIMENT_TARGETS:
        module = importlib.import_module(EXPERIMENT_TARGETS[name])
        return _lint_module(module)
    examples = example_targets()
    if name in examples:
        return _lint_module(_load_example(examples[name]))
    raise ConfigurationError(
        f"unknown lint target {name!r} "
        f"(have: {', '.join(available_targets())})"
    )


def lint_all() -> dict[str, LintReport]:
    """Lint every available target."""
    return {name: lint_target(name) for name in available_targets()}
