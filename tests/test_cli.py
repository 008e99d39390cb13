"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_menu_prints_both_menus(self, capsys):
        assert main(["menu"]) == 0
        out = capsys.readouterr().out
        assert "Interface menu" in out
        assert "Strategy menu" in out
        assert "WR(Y(n), b) -> [2] W(Y(n), b)" in out
        assert "Demarcation Protocol" in out

    def test_experiments_list_forwards(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "e11" in out

    def test_runtime_choices_are_the_registered_runtimes(self, capsys):
        from repro.experiments.runner import main as runner_main

        # Every name Scenario(runtime=) accepts, on both entry points.
        assert main(["experiments", "--list", "--runtime", "wire"]) == 0
        assert runner_main(["--list", "--runtime", "wire"]) == 0
        capsys.readouterr()
        for entry in (
            lambda: main(["experiments", "--list", "--runtime", "carrier"]),
            lambda: runner_main(["--list", "--runtime", "carrier"]),
        ):
            with pytest.raises(SystemExit) as exit_info:
                entry()
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "invalid choice: 'carrier'" in err
            listed = err[err.index("choose from"):]
            assert all(name in listed for name in ("async", "sim", "wire"))

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "experiments" in capsys.readouterr().out

    def test_demo_runs_quickstart(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "installing: propagation" in out

    def test_watch_unknown_experiment_exits_2(self, capsys):
        assert main(["watch", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_watch_streams_frames_and_verdict(self, capsys):
        assert main(["watch", "e1", "--interval", "5"]) == 0
        out = capsys.readouterr().out
        assert "watch e1" in out
        assert "shells:" in out
        assert "REPRODUCED" in out
