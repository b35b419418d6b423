"""Smoke test of the demos: each script in demos/ runs in process and
prints its walkthrough; the two that call io_equivalent print the verdicts
they describe."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
VERDICTS = {
    "02_twins_and_certificates.py": "io_equivalent: False",
    "06_identify.py": "io-equivalent to the truth: True",
}


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert VERDICTS.get(path.name, "") in out
