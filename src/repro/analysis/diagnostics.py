"""Structured diagnostics for the CM-Lint static analyzer.

A :class:`Diagnostic` is one finding: a stable code (``CM301``), a severity,
a message, and provenance (site, rule, check family) plus an optional fix
hint.  Codes are stable across releases so suppression lists and CI
baselines can reference them; the registry below is the single source of
truth for what each code means (the TUTORIAL table is generated from the
same text).  A code stays in it only while nothing else in the toolkit
reports its mistake (DESIGN.md §6, "CM-Lint keeps what only it catches").

Severity semantics follow the usual linter convention:

- ``error`` — the configuration is wrong: a rule can never fire, never
  stops firing, or a promised guarantee is provably unachievable.
  ``verify()`` and the CI lint job fail on these.
- ``warning`` — suspicious but possibly intended (unordered write-write
  pairs).
- ``info`` — observations useful when tuning (a bound that holds only
  while a guard fires).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional


class Severity(Enum):
    """Diagnostic severity, orderable (error > warning > info)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


#: The stable code registry: code -> (default severity, one-line meaning).
#: Checks must use codes from this table; :func:`describe_codes` renders it
#: for the CLI and the TUTORIAL.
CODES: dict[str, tuple[Severity, str]] = {
    # variable safety (CM2xx)
    "CM201": (
        Severity.ERROR,
        "condition uses a rule variable never bound by the LHS template or "
        "a binder equality; the rule can never fire",
    ),
    # cycles (CM3xx)
    "CM301": (
        Severity.ERROR,
        "unguarded cycle in the trigger graph; the rules re-trigger each "
        "other forever",
    ),
    # write-write conflicts (CM5xx)
    "CM501": (
        Severity.WARNING,
        "two rules at different sites write the same item family with no "
        "trigger-graph ordering between them",
    ),
    # guarantee feasibility (CM6xx)
    "CM601": (
        Severity.ERROR,
        "metric guarantee's κ is smaller than the best worst-case bound "
        "achievable along any trigger-graph path",
    ),
    "CM603": (
        Severity.INFO,
        "metric guarantee's only delivery paths are conditionally guarded; "
        "the bound holds only when the guards fire",
    ),
}


def describe_codes() -> str:
    """The codes table, one line per code (CLI ``--lint-codes``)."""
    lines = []
    for code, (severity, meaning) in sorted(CODES.items()):
        lines.append(f"{code}  {severity.value:7s}  {meaning}")
    return "\n".join(lines)


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: Severity
    message: str
    site: Optional[str] = None
    rule: Optional[str] = None
    check: str = ""
    hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code: {self.code!r}")

    def __str__(self) -> str:
        where = []
        if self.site is not None:
            where.append(f"site {self.site}")
        if self.rule is not None:
            where.append(f"rule {self.rule}")
        location = f" [{', '.join(where)}]" if where else ""
        text = f"{self.code} {self.severity.value}{location}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "site": self.site,
            "rule": self.rule,
            "check": self.check,
            "hint": self.hint,
        }


def diagnostic(
    code: str,
    message: str,
    *,
    site: Optional[str] = None,
    rule: Optional[str] = None,
    check: str = "",
    hint: Optional[str] = None,
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a diagnostic with the code's registered default severity."""
    default, __ = CODES[code]
    return Diagnostic(
        code=code,
        severity=severity or default,
        message=message,
        site=site,
        rule=rule,
        check=check,
        hint=hint,
    )


@dataclass
class LintReport:
    """All findings of one analyzer run, ordered most severe first.

    ``suppressed`` holds findings removed by an allowlist entry — they are
    kept (and serialized) so a suppression is always visible, never silent.
    A suppression entry is either a bare code (``"CM501"``) or
    ``"code:rule-name"`` to scope it to one rule.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: list[Diagnostic] = field(default_factory=list)

    def add(self, finding: Diagnostic) -> None:
        self.diagnostics.append(finding)

    def finalize(self, suppress: Iterable[str] = ()) -> "LintReport":
        """Apply suppressions and sort by severity (stable within rank)."""
        allow = set(suppress)
        kept: list[Diagnostic] = []
        for finding in self.diagnostics:
            scoped = f"{finding.code}:{finding.rule}"
            if finding.code in allow or scoped in allow:
                self.suppressed.append(finding)
            else:
                kept.append(finding)
        kept.sort(key=lambda d: (-d.severity.rank, d.code))
        self.diagnostics = kept
        return self

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings and infos do not fail)."""
        return not self.errors

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    def counts(self) -> dict[str, int]:
        counts = {"error": 0, "warning": 0, "info": 0}
        for finding in self.diagnostics:
            counts[finding.severity.value] += 1
        return counts

    def render(self) -> str:
        counts = self.counts()
        lines = [
            f"lint: {counts['error']} error(s), {counts['warning']} "
            f"warning(s), {counts['info']} info"
        ]
        for finding in self.diagnostics:
            lines.append(f"  {finding}")
        for finding in self.suppressed:
            lines.append(f"  suppressed: {finding}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "counts": self.counts(),
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
