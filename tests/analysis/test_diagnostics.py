"""Tests for the Diagnostic/LintReport layer."""

import json

import pytest

from repro.analysis import CODES, Diagnostic, LintReport, Severity, describe_codes
from repro.analysis.diagnostics import diagnostic


class TestDiagnostic:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(
                code="CM999",
                severity=Severity.ERROR,
                message="nope",
            )

    def test_helper_uses_registered_default_severity(self):
        finding = diagnostic("CM301", "unguarded cycle")
        assert finding.severity is Severity.ERROR
        finding = diagnostic("CM501", "conflict")
        assert finding.severity is Severity.WARNING
        finding = diagnostic("CM603", "guarded path")
        assert finding.severity is Severity.INFO

    def test_str_includes_code_severity_and_provenance(self):
        finding = diagnostic(
            "CM201", "unbound variable", site="ny", rule="forward"
        )
        text = str(finding)
        assert "CM201" in text
        assert "error" in text
        assert "ny" in text
        assert "forward" in text

    def test_to_dict_roundtrips_fields(self):
        finding = diagnostic(
            "CM301", "cycle", site="sf", rule="r1", hint="add a guard"
        )
        data = finding.to_dict()
        assert data["code"] == "CM301"
        assert data["severity"] == "error"
        assert data["site"] == "sf"
        assert data["hint"] == "add a guard"


class TestLintReport:
    def test_finalize_sorts_errors_first(self):
        report = LintReport()
        report.add(diagnostic("CM603", "info finding"))
        report.add(diagnostic("CM501", "warning finding"))
        report.add(diagnostic("CM301", "error finding"))
        report = report.finalize(())
        assert [d.severity for d in report.diagnostics] == [
            Severity.ERROR,
            Severity.WARNING,
            Severity.INFO,
        ]

    def test_ok_fails_only_on_errors(self):
        report = LintReport()
        report.add(diagnostic("CM501", "warning"))
        assert report.finalize(()).ok
        report = LintReport()
        report.add(diagnostic("CM301", "error"))
        assert not report.finalize(()).ok

    def test_suppression_by_code(self):
        report = LintReport()
        report.add(diagnostic("CM501", "conflict", rule="r1"))
        report = report.finalize(("CM501",))
        assert not report.diagnostics
        assert len(report.suppressed) == 1  # still visible, not vanished

    def test_suppression_by_code_and_rule_is_selective(self):
        report = LintReport()
        report.add(diagnostic("CM501", "conflict one", rule="monitor_X"))
        report.add(diagnostic("CM501", "conflict two", rule="other"))
        report = report.finalize(("CM501:monitor_X",))
        assert [d.rule for d in report.diagnostics] == ["other"]
        assert [d.rule for d in report.suppressed] == ["monitor_X"]

    def test_suppressed_error_does_not_fail_ok(self):
        report = LintReport()
        report.add(diagnostic("CM601", "infeasible"))
        assert report.finalize(("CM601",)).ok

    def test_to_json_is_valid(self):
        report = LintReport()
        report.add(diagnostic("CM201", "unbound variable", rule="r"))
        data = json.loads(report.finalize(()).to_json())
        assert data["diagnostics"][0]["code"] == "CM201"


class TestCodeRegistry:
    def test_all_families_represented(self):
        prefixes = {code[:3] for code in CODES}
        assert prefixes == {"CM2", "CM3", "CM5", "CM6"}

    def test_describe_codes_lists_every_code(self):
        text = describe_codes()
        for code in CODES:
            assert code in text
