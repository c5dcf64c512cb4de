"""No module of the package imports a name it never uses, neither an
exported name nor a public function goes without a reader, only
``fibration`` and ``catalog`` name a fibration kind, and the runtime
loads only the standard library.

``__init__.py`` is exempt from the first check: it imports to
re-export.  The checks read syntax trees and text, so they need no
linter.
"""

import ast
import json
import pathlib
import re
import subprocess
import sys

import flagvar
from flagvar.fibration import FAMILY_KEYS

SRC = pathlib.Path(flagvar.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]

# Imports kept on purpose.  The perfbench tracer self-test,
# test_wrapper_covers_every_public_function in
# perfbench/tests/test_perfbench.py, looks both names up in that
# module's namespace.
ALLOWED = {("cli", "flag_minimum"), ("spectra", "ck_inner")}


def unused_imports(source):
    """Names bound by an import in ``source`` and never read in it."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
    return imported - loaded_names(tree)


def loaded_names(tree):
    """Names read, as opposed to bound, anywhere in the syntax tree."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def module_unused_imports():
    return {(path.stem, name)
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
            for name in unused_imports(path.read_text())}


def test_no_module_imports_a_name_it_never_uses():
    assert module_unused_imports() == ALLOWED


def test_a_planted_unused_import_is_caught():
    source = ("import os\nfrom math import gcd, lcm as least\n"
              "from . import sibling\nprint(gcd(4, 6), os.sep)\n")
    assert unused_imports(source) == {"least", "sibling"}
    spectra = (SRC / "spectra.py").read_text()
    assert unused_imports("from fractions import Fraction\n" + spectra) \
        == unused_imports(spectra)
    assert unused_imports("from heapq import merge\n" + spectra) \
        == unused_imports(spectra) | {"merge"}


# Exported without a demo or README reader: the perfbench tracer
# self-test checks that flagvar.flag_minimum is wrapped.
EXPORT_ALLOWED = {"flag_minimum"}


def demo_imports(sources):
    """Names imported ``from flagvar`` by any of ``sources``."""
    return {alias.name
            for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "flagvar"
            for alias in node.names}


def backticked_names(text):
    """Identifiers in backticks; a dotted ``module.name`` gives name."""
    return {span.rpartition(".")[2]
            for span in re.findall(r"`([A-Za-z_][\w.]*)`", text)}


def unread_exports(names, demo_sources, readme):
    return (set(names) - demo_imports(demo_sources)
            - backticked_names(readme) - EXPORT_ALLOWED)


def test_every_exported_name_has_a_reader():
    demos = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    assert unread_exports(flagvar.__all__, demos, readme) == set()
    assert all(hasattr(flagvar, name) for name in flagvar.__all__)


def test_a_planted_unread_export_is_caught():
    demo = "from flagvar import alpha, beta as b\nfrom os import gamma\n"
    readme = "Uses `delta`, `pkg.epsilon(1)`, `mod.zeta` and ``eta``.\n"
    names = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "flag_minimum"]
    assert unread_exports(names, [demo], readme) == {
        "gamma", "epsilon", "theta"}


# A public function without a reader, kept on purpose: the perfbench
# tracer self-test looks ck_inner up by name in rootsys and spectra.
FUNCTION_ALLOWED = {("rootsys", "ck_inner")}


def unread_functions(sources, demo_sources, readme):
    """(module, name) of each public module-level function in
    ``sources``, a {module: source} map, whose name no module loads, no
    demo imports and README does not name in backticks.  A bare import
    binds the name without loading it, so it is no reader."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = (set().union(*map(loaded_names, trees.values()))
            | demo_imports(demo_sources) | backticked_names(readme))
    return {(module, node.name)
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name not in read} - FUNCTION_ALLOWED


def test_every_public_function_has_a_reader():
    sources = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    demos = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    assert unread_functions(sources, demos, readme) == set()


def test_a_planted_unread_function_is_caught():
    sources = {
        "alpha": ("def called():\n    pass\n\n\ndef orphan():\n"
                  "    def inner():\n        pass\n\n\n"
                  "def _private():\n    pass\n\n\n"
                  "def demoed():\n    pass\n\n\n"
                  "class Box:\n    def method(self):\n        pass\n"),
        "beta": ("from .alpha import called, orphan\n\n\n"
                 "def shown():\n    return called()\n"),
        "rootsys": "def ck_inner():\n    pass\n",
    }
    demo = "from flagvar import demoed\n"
    readme = "Call `beta.shown`.\n"
    assert unread_functions(sources, [demo], readme) == {("alpha", "orphan")}
    assert unread_functions(dict(sources, gamma="orphan()\n"), [demo],
                            readme) == set()


# What the fibrations are, and what the paper says about them: the only
# modules that may name a fibration kind.
KIND_MODULES = {"fibration", "catalog"}


def family_literals(source):
    """(line, kind) of each string constant in ``source`` that equals a
    fibration kind."""
    return {(node.lineno, node.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in FAMILY_KEYS}


def test_only_fibration_and_catalog_name_a_fibration_kind():
    assert {(path.stem, hit) for path in sorted(SRC.glob("*.py"))
            if path.stem not in KIND_MODULES
            for hit in family_literals(path.read_text())} == set()


def test_a_planted_family_literal_is_caught():
    source = 'def pick(kind):\n    if kind == "sp":\n        return "spx"\n'
    assert family_literals(source) == {(2, "sp")}
    assert family_literals((SRC / "fibration.py").read_text())


# One small argv per subcommand, all run through ``cli.main`` in one
# ``python -S`` process: no site directory, so no .pth file imports
# anything on the runtime's behalf.
STDLIB_ARGVS = [
    ["spectrum", "--family", "su", "--n", "2", "--cutoff", "3"],
    ["scal", "--family", "g2"],
    ["instants", "--family", "so-odd", "--n", "2", "--tmin", "0.2"],
    ["morse", "--family", "sp", "--n", "3", "--tmin", "0.2"],
    ["figure", "--family", "so-even", "--n", "4", "--tmin", "0.3",
     "--format", "svg"],
    ["verify", "--family", "su", "--n", "2"],
]

PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from flagvar import cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, sorted(sys.modules)]))
"""


def foreign_modules(names):
    """Top-level packages among the module ``names`` that are neither in
    the standard library nor flagvar or ``__main__``."""
    return ({name.partition(".")[0] for name in names}
            - sys.stdlib_module_names - {"flagvar", "__main__"})


def test_the_runtime_needs_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC.parent),
         json.dumps(STDLIB_ARGVS)],
        capture_output=True, text=True, timeout=60, check=True)
    codes, modules = json.loads(done.stdout)
    assert codes == [0] * len(STDLIB_ARGVS)
    assert {"flagvar.cli", "flagvar.bifurcation"} <= set(modules)
    assert foreign_modules(modules) == set()


def test_a_planted_foreign_module_is_caught():
    names = ["os.path", "fractions", "flagvar.cli", "__main__",
             "sympy.core", "numpy", "certifi"]
    assert foreign_modules(names) == {"sympy", "numpy", "certifi"}
