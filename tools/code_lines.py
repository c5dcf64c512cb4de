"""Count the physical and code lines of each module of a source tree.

    python tools/code_lines.py [SRC]

SRC defaults to this checkout's ``src/flagvar``.  A code line is a
physical line spanned by the tokens of some statement; comments, blank
lines and a statement that is a lone string (a docstring) count for
nothing.  Prints one line per module, physical and code lines, then the
totals.  Standard library only.
"""

import ast
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(path):
    """(physical lines, code lines) of the module at ``path``."""
    with open(path, "rb") as handle:
        source = handle.read()
    lines = set()
    for token in tokenize.tokenize(iter(source.splitlines(True)).__next__):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(source.splitlines()), len(lines)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    src = args[0] if args else os.path.join(ROOT, "src", "flagvar")
    totals = [0, 0]
    print("{:<24} {:>8} {:>6}".format("module", "physical", "code"))
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            counts = count(os.path.join(src, name))
            totals = [t + c for t, c in zip(totals, counts)]
            print("{:<24} {:>8} {:>6}".format(name, *counts))
    print("{:<24} {:>8} {:>6}".format("total", *totals))


if __name__ == "__main__":
    main()
