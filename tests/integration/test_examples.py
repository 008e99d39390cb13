"""Every example script runs to completion and prints what it printed
when its digest was pinned.

The digests are SHA-256 of each script's whole stdout.  A change to the
wiring surface that rewrites an example must leave its output
byte-identical; a change that means to alter an example's output updates
its pin here, deliberately.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)

STDOUT_SHA256 = {
    "banking_eod": "3196c74137eb51218ea927f9b6d8f4911fa2216ea5ad118d6b086934a3956b9d",
    "custom_source": "07dc3df4323dbea8c7d667073cd82f101ee2a9a09ec94268d503af8f66d0b533",
    "demarcation_inventory": "835c4125e15397f2da09ed1b68eb97a22028cd485d991f7cfc017038b5d8d184",
    "monitor_auditor": "084aca296bda7f6cab946600526b68b3ec6eef493960c009c081ec3b0aee2d7f",
    "personnel_sync": "4d6c4f2880e02c2150256d7a8e7b98e8d37febd8116cee15d05b6f53c37eafa0",
    "quickstart": "87bdf33263be78d3840b1adbb0f790d8b6a0abe0304467b82401e1e1ced43c49",
}


@pytest.mark.parametrize(
    "example", EXAMPLES, ids=lambda path: path.stem
)
def test_example_runs(example, capsys):
    runpy.run_path(str(example), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example narrates what it did
    assert "VIOLATED" not in out or "monitor" in example.stem
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == STDOUT_SHA256[example.stem]


def test_every_example_is_pinned():
    assert sorted(STDOUT_SHA256) == [path.stem for path in EXAMPLES]
