"""No module of the package imports a name it never uses.

``__init__.py`` is exempt: it imports to re-export.  The check reads
each module's syntax tree, so it needs no linter.
"""

import ast
import pathlib

import flagvar

SRC = pathlib.Path(flagvar.__file__).parent

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
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - used


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
