"""Golden outputs: stdout digest and exit code of a fixed set of argv.

Every subcommand runs on every family at small parameters, plus the
instants rows of su n=4 and sp n=4, whose gap forms have the odd
denominator 5 or 25 and so leave common factors of 5 and 3, or none,
for the surd's normal form to divide out of u, two deep Morse grids
(su n=2 at tmin 0.007, sp n=3 at tmin 0.01) that cross 89 and 2101
instants, five ``--phi1`` overrides, which give a fibration its own
cache key (two are g2 ``verify`` rows either side of the gap
certificate: PASS at 1/10, FAIL at 1/100), CSV spectra of the
multi-generator bases, whose nested labels ``cli._label_str`` writes,
the JSON forms of ``scal`` and ``figure``, the rows in HIGH_RANK, and,
in HELP_ARGVS, ``--help`` for the top level and each subcommand.
HELP_ARGVS stay apart from ARGVS, since tests/test_reach.py runs ARGVS
through ``cli.main`` and a help request ends in SystemExit.  argparse
wraps help at the terminal width, so digests take it at COLUMNS=80.
A change that alters any byte of these outputs fails here; when the
change is deliberate, say so in CHANGES.md and regenerate the digests
from the repository root with

    PYTHONPATH=src python tests/test_golden.py

which rewrites tests/golden_digests.json.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
from unittest import mock

import pytest

from flagvar import cli

DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")

SMALL = [("su", 2), ("so-odd", 2), ("sp", 3), ("so-even", 4), ("g2", 2)]

ARGVS = [argv + ["--family", kind, "--n", str(n)]
         for kind, n in SMALL
         for argv in (["spectrum", "--cutoff", "3"],
                      ["scal"],
                      ["scal", "--format", "csv"],
                      ["instants", "--tmin", "0.2"],
                      ["instants", "--tmin", "0.3", "--format", "csv"],
                      ["morse", "--tmin", "0.2", "--format", "csv"],
                      ["figure", "--tmin", "0.2"],
                      ["figure", "--tmin", "0.2", "--format", "json"],
                      ["figure", "--tmin", "0.3", "--format", "svg"],
                      ["verify"])]
ARGVS += [["instants", "--family", "su", "--n", "4", "--tmin", "0.05",
           "--format", "csv"],
          ["instants", "--family", "sp", "--n", "4", "--tmin", "0.05"],
          ["verify"],
          ["morse", "--family", "su", "--n", "2", "--tmin", "0.007",
           "--format", "csv"],
          ["morse", "--family", "sp", "--n", "3", "--tmin", "0.01"],
          ["instants", "--family", "su", "--n", "2", "--tmin", "0.2",
           "--phi1", "1/1000"],
          ["instants", "--family", "g2", "--tmin", "0.2", "--phi1", "1/50"],
          ["verify", "--family", "su", "--n", "2", "--phi1", "1/1000"],
          ["verify", "--family", "g2", "--phi1", "1/10"],
          ["verify", "--family", "g2", "--phi1", "1/100"]]
ARGVS += [["spectrum", "--format", "csv", "--family", kind, "--n", str(n)]
          for kind, n in (("so-even", 4), ("sp", 3), ("g2", 2))]

# Past rank 4, where the fundamental weights' elimination, the root
# table and the Weyl rows meet ranks that the small rows cannot show:
# verify and a deep instants list at su 40 and 80, verify and instants
# at rank 10 of the three rank-grown bases, a Morse grid over the
# so-odd 30 instants and a CSV spectrum at su 12.
HIGH_RANK = [["verify", "--family", "su", "--n", "40"],
             ["verify", "--family", "su", "--n", "80"],
             ["instants", "--family", "su", "--n", "80", "--tmin", "0.1",
              "--format", "csv"]]
HIGH_RANK += [argv + ["--family", kind, "--n", "10"]
              for kind in ("so-odd", "sp", "so-even")
              for argv in (["verify"], ["instants", "--tmin", "1/5"])]
HIGH_RANK += [["morse", "--family", "so-odd", "--n", "30", "--tmin", "0.01"],
              ["spectrum", "--family", "su", "--n", "12", "--cutoff", "4",
               "--format", "csv"]]
ARGVS += HIGH_RANK

HELP_ARGVS = [["--help"]] + [[command, "--help"] for command in (
    "spectrum", "scal", "instants", "morse", "figure", "verify")]


def digest(argv):
    """{"exit": code, "stdout_sha256": hex digest} of one in-process run;
    the code of a SystemExit, as argparse raises after help, counts as
    the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode())
            .hexdigest()}


def test_golden_covers_exactly_the_argv_list():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(
        " ".join(argv) for argv in ARGVS + HELP_ARGVS)


@pytest.mark.parametrize("argv", ARGVS + HELP_ARGVS, ids=" ".join)
def test_golden_output(argv):
    assert digest(argv) == json.loads(DIGESTS.read_text())[" ".join(argv)]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {" ".join(argv): digest(argv) for argv in ARGVS + HELP_ARGVS},
        indent=1, sort_keys=True) + "\n")
