"""Every demo runs in-process against the package as it stands.

The demos use only the public API, so a rename or a deletion there that
breaks one fails here.  Each must print its report, and none may report a
failed bit-exact check.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    checks = [line for line in out.splitlines() if "bit-exact" in line]
    assert all(line.endswith(": True") for line in checks)
