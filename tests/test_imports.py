"""No module of the package imports a name it never uses, every
``from flagvar`` import in the demos, tools and tests names the module
that defines the name, only ``fibration`` and ``catalog`` name a
fibration kind, and the runtime loads only the standard library.

The checks read syntax trees and text, so they need no linter.  That
every function runs is tests/test_reach.py's rule.
"""

import ast
import json
import pathlib
import subprocess
import sys

import flagvar
from flagvar.fibration import FAMILY_KEYS

SRC = pathlib.Path(flagvar.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]

# Imports kept on purpose.  The perfbench tracer self-test,
# test_wrapper_covers_every_public_function in
# perfbench/tests/test_perfbench.py, looks each name up in that
# module's namespace.
ALLOWED = {("__init__", "flag_minimum"), ("cli", "flag_minimum"),
           ("spectra", "ck_inner")}


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
            for path in sorted(SRC.glob("*.py"))
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


def defined_names(source):
    """Names bound at the top level of ``source`` by a def, a class or
    an assignment.  An import binds a name without defining it."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {name.id for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name)
                      and isinstance(name.ctx, ast.Store)}
    return names


def package_sources():
    """{dotted module name: source} for the package and its modules."""
    return {"flagvar" + ("" if path.stem == "__init__" else "." + path.stem):
            path.read_text() for path in sorted(SRC.glob("*.py"))}


def stray_imports(sources, package):
    """(file, module, name) of each ``from flagvar[.module] import name``
    in ``sources``, a {file: source} map, where name is neither a
    submodule nor defined at the top level of the module.  ``package``
    maps each dotted module name of the package to its source."""
    found = set()
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.partition(".")[0] == "flagvar"):
                defined = defined_names(package.get(node.module, ""))
                found |= {(file, node.module, alias.name)
                          for alias in node.names
                          if alias.name not in defined
                          and node.module + "." + alias.name not in package}
    return found


def test_every_name_is_imported_from_its_defining_module():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for folder in ("demos", "tools", "tests")
               for path in sorted((ROOT / folder).glob("*.py"))}
    assert len(sources) > 20
    assert stray_imports(sources, package_sources()) == set()


def test_a_planted_second_import_path_is_caught():
    package = package_sources()
    source = ("from flagvar import cli, spectra\n"
              "from flagvar.fibration import FAMILY_KEYS, build_fibration\n"
              "from flagvar.bifurcation import flag_minimum\n"
              "from flagvar import build_fibration\n"
              "from fractions import Fraction\n")
    assert stray_imports({"planted": source}, package) == {
        ("planted", "flagvar.bifurcation", "flag_minimum"),
        ("planted", "flagvar", "build_fibration")}
    assert defined_names("import os\nfrom math import gcd\nA, (B, C) = D = 1,"
                         " (2, 3)\nE: int = 4\nif A:\n    F = 5\n"
                         "os.sep = M[0] = 8\n"
                         "def g():\n    H = 6\nclass K:\n    L = 7\n") == {
        "A", "B", "C", "D", "E", "g", "K"}


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
