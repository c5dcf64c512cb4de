"""Every function in the package runs under a subcommand or a demo.

This is the suite's one reach rule: no static check counts a name in
a test, the README or an import as a reader.  One traced child process
imports flagvar, runs every golden argv of tests/test_golden.py in
process, then the five demos, and reports the code objects of the
package that it entered.  A ``def`` that none of them enters, methods
and nested functions included, is dead code, or code that only tests
reach.  Tracing starts before the import, so code that runs only at
import counts.  A code object is keyed by its file and first line,
which for a decorated function is the first decorator's line.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import flagvar
from test_golden import ARGVS

SRC = pathlib.Path(flagvar.__file__).parent
DEMOS = sorted((SRC.parents[1] / "demos").glob("0*.py"))

# Left unreached on purpose, each for the reason given.
ALLOWED = {
    # The perfbench tracer self-test looks it up in rootsys and spectra.
    "rootsys.ck_inner",
}

# Reads [argvs, demos] as JSON on stdin; prints the entered
# [file, first line] pairs as JSON.  The global trace function sees each
# call and returns None, so no line is traced.
CHILD = """
import contextlib, io, json, runpy, sys
argvs, demos = json.load(sys.stdin)
entered = set()
sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))
import flagvar.cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    for argv in argvs:
        flagvar.cli.main(argv)
    for demo in demos:
        runpy.run_path(demo, run_name="__main__")
sys.settrace(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno)
                         for c in entered})))
"""


def defs(module, source):
    """{(module, first line): qualified name} of every def in source,
    methods and nested functions included."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                found[(module, line)] = prefix + child.name
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(source), module + ".")
    return found


def unreached(sources, entered):
    """Qualified names of the defs in ``sources``, a {module: source}
    map, whose (module, first line) is not in ``entered``."""
    return {name for module, source in sources.items()
            for key, name in defs(module, source).items()
            if key not in entered}


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """(module, first line) of every package code object the golden
    argv and the demos enter.  The demos write under a temp directory."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=tmp_path_factory.mktemp("reach"),
        input=json.dumps([ARGVS, [str(d) for d in DEMOS]]), env=env,
        capture_output=True, text=True, timeout=120, check=True)
    return {(pathlib.Path(name).stem, line)
            for name, line in json.loads(done.stdout)
            if pathlib.Path(name).parent == SRC}


def _sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_def_runs_under_a_subcommand_or_a_demo(entered):
    assert len(DEMOS) == 5
    assert unreached(_sources(), entered) == ALLOWED


def test_a_planted_unreached_def_is_caught(entered):
    sources = _sources()
    sources["bifurcation"] += "\n\ndef planted():\n    pass\n"
    assert unreached(sources, entered) == ALLOWED | {"bifurcation.planted"}
    source = ("import functools\n\n\n@functools.cache\ndef outer():\n"
              "    def inner():\n        pass\n\n\n"
              "class Box:\n    def method(self):\n        pass\n")
    assert unreached({"alpha": source}, {("alpha", 4), ("alpha", 6)}) == {
        "alpha.Box.method"}
    assert unreached({"alpha": source}, {("alpha", 5), ("alpha", 11)}) == {
        "alpha.outer", "alpha.outer.inner"}
