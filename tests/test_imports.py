"""No module of the package imports a name it never uses, and the
package exports no name without a reader.

``__init__.py`` is exempt from the first check: it imports to
re-export.  Both checks read syntax trees and text, so they need no
linter.
"""

import ast
import pathlib
import re

import flagvar

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
