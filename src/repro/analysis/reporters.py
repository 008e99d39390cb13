"""Text and JSON reporters for CM-Lint results.

The CLI lints a set of named targets (experiments and example scripts) and
renders either a human-readable digest or a JSON document; CI runs the JSON
form, fails on any error-severity diagnostic, and archives the report.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.analysis.diagnostics import LintReport


def merge_reports(reports: list[LintReport]) -> LintReport:
    """Merge per-scenario reports for one target, deduplicating findings.

    A target that wires several scenarios (e.g. an experiment sweeping
    strategy kinds) repeats most of its rule set; identical findings are
    collapsed so the report reads per-configuration, not per-build.
    """
    merged = LintReport()
    seen: set[tuple] = set()
    for report in reports:
        for finding in report.diagnostics:
            key = (finding.code, finding.rule, finding.site, finding.message)
            if key in seen:
                continue
            seen.add(key)
            merged.diagnostics.append(finding)
        for finding in report.suppressed:
            key = (finding.code, finding.rule, finding.site, finding.message)
            if key in seen:
                continue
            seen.add(key)
            merged.suppressed.append(finding)
    merged.diagnostics.sort(key=lambda d: (-d.severity.rank, d.code))
    return merged


def render_text(results: dict[str, LintReport]) -> str:
    """Human-readable multi-target digest."""
    lines = []
    total_errors = 0
    total_warnings = 0
    for target, report in results.items():
        counts = report.counts()
        total_errors += counts["error"]
        total_warnings += counts["warning"]
        status = "ok" if report.ok else "FAIL"
        lines.append(f"== lint {target}: {status} ==")
        if report.diagnostics or report.suppressed:
            for line in report.render().splitlines()[1:]:
                lines.append(line)
        else:
            lines.append("  clean")
    lines.append(
        f"lint summary: {len(results)} target(s), {total_errors} error(s), "
        f"{total_warnings} warning(s)"
    )
    return "\n".join(lines)


def results_to_dict(results: dict[str, LintReport]) -> dict:
    """JSON-ready aggregate across targets."""
    return {
        "ok": all(report.ok for report in results.values()),
        "targets": {
            target: report.to_dict() for target, report in results.items()
        },
    }


def write_json(results: dict[str, LintReport], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(results_to_dict(results), indent=2) + "\n",
        encoding="utf-8",
    )
    return path
