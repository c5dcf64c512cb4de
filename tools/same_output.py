"""Compare the CLI's output at this checkout and at another one.

    python tools/same_output.py OTHER_CHECKOUT

OTHER_CHECKOUT is another checkout of this repository.  Every argv is
run as a cold ``python -m flagvar.cli`` subprocess in each checkout,
with that checkout's ``src`` on the path: every argv that the benchmark
workloads can draw (``perfbench.workloads.all_queries``), every key of
tests/golden_digests.json, and ``verify --family F --n N --phi1 P`` for
each family of the golden keys, with P the family's first fiber
eigenvalue phi1 times j/40 for j = 1..80, and 1/1000 and 1/50, and
``instants --family F --n N --tmin 1/5 --phi1 P`` with P = phi1*j/8
for j = 1..16, where the override moves each bifurcation flag;
``verify --family F --n N`` at every valid rank N <= 7, since the
catalogue's agreement pattern depends on the rank, ``spectrum
--family F --n N --cutoff 4`` there too, whose base labels list the
spherical generators' coefficients in generator order, and ``figure
--family F --n N --tmin 1/5 --format svg`` there too, whose first flag
and fiber entries share the cached walks at cutoff 1, and ``instants
--family F --n N --tmin 1/20 --format csv`` there too, whose t and
t_error columns the CSV printer makes from each exact u; ``scal --family
F --n N`` at the ranks in SCAL_RANKS, past the golden ones; ``verify
--family su --n N`` at the ranks in VERIFY_RANKS; and the usage
errors in USAGE_ERRORS, whose stderr carries argparse's usage line and
so each subparser's option order and choices.  stdout, stderr and the
exit code must match.  Each difference is printed, then
the total; the exit code is 1 on any difference.  Standard library only.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from flagvar.fibration import (FAMILY_KEYS, FibrationFamily,  # noqa: E402
                               build_fibration)
from perfbench.workloads import WORKLOADS, all_queries  # noqa: E402

WORKERS = 2

# Argv that argparse refuses: an option a subcommand does not take
# prints the top-level usage line, any other error the subcommand's.
USAGE_ERRORS = [[], ["spectrum", "--family", "su", "--format", "svg"],
                ["scal", "--family", "e8"], ["instants"],
                ["morse", "--family", "su", "--format", "svg"],
                ["figure", "--family", "su", "--format", "pdf"],
                ["figure", "--family", "su", "--phi1", "1"],
                ["verify", "--family", "e8"], ["verify", "--format", "csv"]]

# scal(t) at ranks past the golden ones, where a derivation of it could
# part from another.
SCAL_RANKS = ([("su", n) for n in (12, 20, 30)]
              + [(kind, n) for kind in ("so-odd", "sp", "so-even")
                 for n in (10, 12, 16)])

# verify at high su ranks, where mu1 and phi1 are read off one walk each.
VERIFY_RANKS = (40, 80)


def argvs():
    """Every argv to compare, in a fixed order, without repeats."""
    out = [list(argv) for name in WORKLOADS for argv in all_queries(name)]
    with open(os.path.join(ROOT, "tests", "golden_digests.json")) as f:
        golden = [key.split() for key in sorted(json.load(f))]
    out += golden
    families = sorted({(argv[argv.index("--family") + 1],
                        argv[argv.index("--n") + 1])
                       for argv in golden if "--n" in argv})
    for kind, n in families:
        phi1 = build_fibration(FibrationFamily(kind, int(n))).phi1
        for phi in ([phi1 * Fraction(j, 40) for j in range(1, 81)]
                    + [Fraction(1, 1000), Fraction(1, 50)]):
            out.append(["verify", "--family", kind, "--n", n,
                        "--phi1", str(phi)])
        for j in range(1, 17):
            out.append(["instants", "--family", kind, "--n", n,
                        "--tmin", "1/5", "--phi1", str(phi1 * j / 8)])
    for kind, n in product(FAMILY_KEYS, range(2, 8)):
        try:
            FibrationFamily(kind, n)
        except ValueError:
            continue
        out.append(["verify", "--family", kind, "--n", str(n)])
        out.append(["spectrum", "--family", kind, "--n", str(n),
                    "--cutoff", "4"])
        out.append(["figure", "--family", kind, "--n", str(n),
                    "--tmin", "1/5", "--format", "svg"])
        out.append(["instants", "--family", kind, "--n", str(n),
                    "--tmin", "1/20", "--format", "csv"])
    out += [["scal", "--family", kind, "--n", str(n)]
            for kind, n in SCAL_RANKS]
    out += [["verify", "--family", "su", "--n", str(n)] for n in VERIFY_RANKS]
    out += USAGE_ERRORS
    return [list(a) for a in dict.fromkeys(map(tuple, out))]


def run(checkout, argv):
    """(stdout, stderr, exit code) of one cold CLI process in checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "flagvar.cli"] + argv,
                          cwd=checkout, env=env, capture_output=True,
                          stdin=subprocess.DEVNULL)
    return done.stdout, done.stderr, done.returncode


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print("usage: python tools/same_output.py OTHER_CHECKOUT",
              file=sys.stderr)
        return 2
    other = os.path.abspath(sys.argv[1])
    todo = argvs()

    def compare(argv):
        here, there = run(ROOT, argv), run(other, argv)
        return [name for name, a, b in zip(("stdout", "stderr", "exit"),
                                            here, there) if a != b]

    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(compare, todo))
    differences = 0
    for argv, fields in zip(todo, results):
        if fields:
            differences += 1
            print("DIFFERS ({}): {}".format(", ".join(fields), " ".join(argv)))
    print("{} of {} argv differ".format(differences, len(todo)))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
