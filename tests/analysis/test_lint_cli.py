"""Tests for the ``python -m repro --lint`` command-line surface."""

import json

import pytest

from repro.__main__ import main


class TestLintCli:
    def test_lint_single_target_exits_zero(self, capsys):
        assert main(["--lint", "e1_propagation"]) == 0
        out = capsys.readouterr().out
        assert "e1_propagation" in out

    def test_lint_all_exits_zero(self, capsys):
        assert main(["--lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "example:quickstart" in out

    def test_unknown_target_exits_two(self, capsys):
        assert main(["--lint", "no_such_experiment"]) == 2

    def test_missing_target_without_all_exits_two(self, capsys):
        assert main(["--lint"]) == 2

    def test_json_report_is_written(self, tmp_path, capsys):
        out_path = tmp_path / "lint.json"
        assert main(["--lint", "e1_propagation", "--json", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["ok"]
        assert "e1_propagation" in data["targets"]

    def test_json_all_report_covers_every_target(self, tmp_path, capsys):
        from repro.analysis.targets import available_targets

        out_path = tmp_path / "lint.json"
        assert main(["--lint", "--all", "--json", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert set(data["targets"]) == set(available_targets())

    def test_json_without_lint_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--json", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2

    def test_lint_codes_lists_registry(self, capsys):
        from repro.analysis import CODES

        assert main(["--lint-codes"]) == 0
        out = capsys.readouterr().out
        for code in CODES:
            assert code in out
