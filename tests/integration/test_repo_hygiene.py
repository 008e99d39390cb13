"""Repository-consistency checks: docs, smoke tests, and experiments in sync."""

from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


class TestHygiene:
    def test_every_experiment_has_a_smoke_test(self):
        from repro.experiments.runner import EXPERIMENTS

        smoke_text = (
            REPO / "tests" / "integration" / "test_experiments_smoke.py"
        ).read_text()
        for key, (__, run) in EXPERIMENTS.items():
            module = run.__module__.rsplit(".", 1)[-1]
            call = f"{module}.{run.__name__}("
            assert call in smoke_text, (
                f"experiment {key} is never run by the smoke tests "
                f"(no {call!r} in test_experiments_smoke.py)"
            )

    def test_every_experiment_is_documented(self):
        experiments_md = (REPO / "EXPERIMENTS.md").read_text()
        for section in (
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
            "E11",
        ):
            assert f"## {section} —" in experiments_md, (
                f"{section} missing from EXPERIMENTS.md"
            )
        assert experiments_md.count("## Ablation") == 3

    def test_every_example_is_in_the_readme(self):
        readme = (REPO / "README.md").read_text()
        for example in (REPO / "examples").glob("*.py"):
            assert example.name in readme, (
                f"{example.name} not mentioned in README.md"
            )

    def test_design_lists_every_experiment(self):
        design = (REPO / "DESIGN.md").read_text()
        for key in ("E1", "E5", "E10", "E11"):
            assert f"| {key} |" in design

    def test_no_experiment_claims_left_unreproduced_in_docs(self):
        experiments_md = (REPO / "EXPERIMENTS.md").read_text()
        assert "NOT REPRODUCED" not in experiments_md
