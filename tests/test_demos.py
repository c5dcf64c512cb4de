"""The narrative demos: each one runs to completion on the standard
library alone, and prints exactly what it printed when its digest was
recorded.

Demo stdout is deterministic and does not depend on the working
directory.  A change that alters any byte of it fails here; when the
change is deliberate, say so in CHANGES.md and regenerate the digests
from the repository root with

    python tests/test_demos.py

which rewrites tests/demo_digests.json.
"""

import functools
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
DIGESTS = pathlib.Path(__file__).with_name("demo_digests.json")

# Blocks sympy, then runs the demo as a script.
RUNNER = ("import runpy, sys; sys.modules['sympy'] = None; "
          "runpy.run_path(sys.argv[1], run_name='__main__')")


def run_demo(demo, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", RUNNER, str(demo)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def digest(out):
    """{"exit": code, "stdout_sha256": hex digest} of one finished run."""
    return {"exit": out.returncode,
            "stdout_sha256": hashlib.sha256(out.stdout.encode()).hexdigest()}


def test_demos_found():
    assert len(DEMOS) == 5
    assert sorted(json.loads(DIGESTS.read_text())) == [d.stem for d in DEMOS]


@functools.lru_cache(maxsize=None)
def demo_run(demo):
    """The one run of a demo, from a fresh temporary directory, that both
    tests below read: 5 subprocesses, not 10."""
    with tempfile.TemporaryDirectory() as cwd:
        return run_demo(demo, cwd)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_without_sympy(demo):
    out = demo_run(demo)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_digest(demo):
    # Exits 0, with its stderr shown if not, and prints what its digest
    # recorded.
    out = demo_run(demo)
    assert out.returncode == 0, out.stderr
    assert digest(out) == json.loads(DIGESTS.read_text())[demo.stem]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        DIGESTS.write_text(json.dumps(
            {demo.stem: digest(run_demo(demo, scratch)) for demo in DEMOS},
            indent=1, sort_keys=True) + "\n")
