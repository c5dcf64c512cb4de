"""Smoke test for the narrative demos: each one runs to completion on the
standard library alone."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# Blocks sympy, then runs the demo as a script.
RUNNER = ("import runpy, sys; sys.modules['sympy'] = None; "
          "runpy.run_path(sys.argv[1], run_name='__main__')")


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_without_sympy(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", RUNNER, str(demo)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
