"""One-call post-run verification of a constraint-managed scenario.

Bundles the four validation layers the repository provides:

1. **guarantee checking** — every issued guarantee evaluated against the
   recorded execution trace;
2. **valid-execution checking** — the Appendix A.2 properties over the
   trace, using every rule installed at a shell — the same installed rules
   CM-Lint's trigger graph reads, whether a catalog strategy or
   ``cm.install_rule`` placed them;
3. **board consistency** — the status board must not *believe* a guarantee
   that the trace refutes (belief may be strictly more cautious than truth:
   a transient failure can invalidate a guarantee whose obligations happened
   to be met anyway, but never the other way around — except for silent
   failures, which is precisely what :attr:`VerificationReport.silent_gaps`
   surfaces);
4. **static lint** — the CM-Lint checks (:func:`repro.analysis.lint_manager`)
   over the still-wired configuration, limited to mistakes nothing else
   reports: unguarded trigger cycles, unbound rule variables, unordered
   cross-site writers, infeasible or guard-dependent metric bounds.  The
   interface survey itself is not repeated here: ``cm.install`` and
   ``cm.install_rule`` reject an unoffered interface before the run.

Usage::

    from repro.cm.verify import verify
    report = verify(cm)
    assert report.ok, report.render()
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cm.manager import ConstraintManager
from repro.core.guarantees import GuaranteeReport
from repro.core.trace import Violation, validate_trace


@dataclass
class VerificationReport:
    """Everything :func:`verify` found."""

    guarantee_reports: dict[str, GuaranteeReport] = field(default_factory=dict)
    trace_violations: list[Violation] = field(default_factory=list)
    #: Guarantees the board still believes although the trace refutes them —
    #: the signature of an *undetected* (silent) failure, Section 5.
    silent_gaps: list[str] = field(default_factory=list)
    #: Trace recording/index counters (:meth:`ExecutionTrace.stats`) at
    #: verification time — how much work the indexed hot path actually did.
    trace_stats: dict[str, int] = field(default_factory=dict)
    #: Static CM-Lint findings over the wired configuration
    #: (:func:`repro.analysis.lint_manager`) — surfaced alongside the
    #: dynamic layers so a post-run report also shows what was knowable
    #: before the run.  Error findings fail :attr:`ok`.
    diagnostics: list = field(default_factory=list)

    @property
    def guarantees_ok(self) -> bool:
        """Every issued guarantee checked valid."""
        return all(r.valid for r in self.guarantee_reports.values())

    @property
    def trace_ok(self) -> bool:
        """No Appendix A.2 valid-execution violations."""
        return not self.trace_violations

    @property
    def lint_ok(self) -> bool:
        """No error-severity static findings."""
        from repro.analysis.diagnostics import Severity

        return not any(
            d.severity is Severity.ERROR for d in self.diagnostics
        )

    @property
    def ok(self) -> bool:
        """All validation layers (static and dynamic) passed."""
        return (
            self.guarantees_ok
            and self.trace_ok
            and not self.silent_gaps
            and self.lint_ok
        )

    def render(self) -> str:
        """Human-readable multi-line summary of the findings."""
        lines = [f"verification: {'OK' if self.ok else 'PROBLEMS FOUND'}"]
        for name, report in self.guarantee_reports.items():
            lines.append(f"  {report}")
            for counterexample in report.counterexamples[:3]:
                lines.append(f"    counterexample: {counterexample}")
        if self.trace_violations:
            lines.append(
                f"  {len(self.trace_violations)} valid-execution violations:"
            )
            for violation in self.trace_violations[:5]:
                lines.append(f"    {violation}")
        for name in self.silent_gaps:
            lines.append(
                f"  SILENT GAP: board believes {name!r} but the trace "
                f"refutes it (undetected failure?)"
            )
        if self.diagnostics:
            lines.append(f"  {len(self.diagnostics)} lint finding(s):")
            for finding in self.diagnostics[:5]:
                lines.append(f"    {finding}")
        if self.trace_stats:
            lines.append(
                "  trace: {events_recorded} events, {items_tracked} items, "
                "{state_versions} state versions, "
                "{interpretation_materializations} materializations".format(
                    **self.trace_stats
                )
            )
        return "\n".join(lines)


def verify(cm: ConstraintManager) -> VerificationReport:
    """Run all post-hoc validation layers over a finished scenario.

    The static CM-Lint checks run over the still-wired configuration and
    their findings are attached, so the report also shows what was
    knowable before the run.

    A violated guarantee is a silent gap when the board vouched for it while
    it was violated: some interval of its report's ``violated_during`` lies
    outside ``board.invalid_intervals``.  A report that carries no intervals
    (every family but the copy family) is read against the board's state at
    the end of the run.
    """
    from repro.analysis import lint_manager

    report = VerificationReport()
    report.diagnostics = list(lint_manager(cm).diagnostics)
    report.guarantee_reports = cm.check_guarantees()
    rules = [rule for shell in cm.shells.values() for rule in shell.rules]
    report.trace_violations = validate_trace(cm.scenario.trace, rules)
    report.trace_stats = cm.scenario.trace.stats()
    horizon = cm.scenario.trace.horizon
    for installed in cm.installed:
        for guarantee in installed.guarantees:
            checked = report.guarantee_reports.get(guarantee.name)
            if checked is None or checked.valid:
                continue
            if checked.violated_during:
                withdrawn = cm.board.invalid_intervals(guarantee, horizon)
                vouched = not all(map(withdrawn.covers, checked.violated_during))
            else:
                vouched = cm.board.is_valid(guarantee)
            if vouched:
                report.silent_gaps.append(guarantee.name)
    return report
