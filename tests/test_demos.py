"""Every demo script runs to completion in a fresh interpreter.

The demos import the public API (the searches, the nu_* aliases, the
printers), so a renamed or deleted name breaks them; nothing else runs
them.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import nestnets

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    # The child imports the same nestnets copy as this process, installed
    # or not.
    package_root = str(pathlib.Path(nestnets.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": package_root},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demos_found():
    assert DEMOS, "no demos/*.py next to the tests"
