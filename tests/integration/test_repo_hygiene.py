"""Repository-consistency checks: docs, smoke tests, and experiments in sync."""

import ast
import contextlib
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _strings_in(node: ast.AST) -> list[str]:
    return [
        c.value
        for c in ast.walk(node)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]


def _unused_top_level_imports(path: Path) -> list[str]:
    """Names a module imports at top level and never mentions again.

    The offline stand-in for ruff's F401: a name counts as used when it
    appears as an identifier anywhere in the module, inside a quoted
    annotation, or in ``__all__``.
    """
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names_in(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(_strings_in(node.value))
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None
        )
        if annotation is not None:
            for quoted in _strings_in(annotation):
                # Literal["two words"] is a string, not a forward reference.
                with contextlib.suppress(SyntaxError):
                    used |= _names_in(ast.parse(quoted, mode="eval"))
    return [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


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

    def test_no_unused_top_level_imports_in_src(self):
        unused = [
            finding
            for path in sorted((REPO / "src").rglob("*.py"))
            if path.name != "__init__.py"
            for finding in _unused_top_level_imports(path)
        ]
        assert not unused, "unused imports:\n" + "\n".join(unused)

    def test_no_experiment_claims_left_unreproduced_in_docs(self):
        experiments_md = (REPO / "EXPERIMENTS.md").read_text()
        assert "NOT REPRODUCED" not in experiments_md
