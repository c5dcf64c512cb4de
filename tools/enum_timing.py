"""In-process timing of the spectrum enumerators at two checkouts.

    python tools/enum_timing.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository.  Each of the
PAIRS pairs runs one fresh interpreter per checkout, alternating which
goes first; each interpreter imports flagvar from its checkout's ``src``
and times, with ``time.perf_counter`` and one call per cell of the
fixed grid below, ``import flagvar`` and then ``import flagvar.cli``,
``build_fibration``, ``flag_spectrum``, ``fiber_spectrum``,
``base_spectrum``, the root tables ``_root_coordinates`` and
``_weyl_rows``, ``flag_minimum``, and scal(t) and phi1 as
``build_fibration(...).scal`` and ``.phi1``, the instant solving
``degeneracy_instants(fib, instant_base(fib, t_min))`` and the verify
checks ``catalog.audit(fib)``, cold (after every flagvar cache is
emptied) where the grid says so.  Each spectrum cell times a
first walk: where a checkout caches its class-one walks
(``spectra._class_one_spectrum``), that cache alone is emptied before
the cell, and the root tables stay warm.  A full garbage collection
runs before each timed cell, so no cell pays for the garbage of another.
Workers inherit the environment, so with PYTHONDONTWRITEBYTECODE=1 and
no ``__pycache__`` in the checkouts the import cells pay the compile
from source that a cold command-line query pays.
The report gives, per call and summed, the median seconds at each
checkout and the change's share of pairs won, then one line saying
whether every output was equal at both checkouts.  A cell whose function
a checkout lacks shows "-" there and stays out of the sum and the
comparison.  Standard library only.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

PAIRS = 10

# The import cells run first in each worker, before any other flagvar
# import.  The flagvar.cli cell's output is the sorted flagvar modules
# loaded after it; the flagvar cell's is a constant, since a checkout
# may load fewer modules for the bare package.
IMPORTS = [("import", "flagvar", None, None),
           ("import", "flagvar.cli", None, None)]

# (function, kind, rank, cutoff).  The build_fibration cells take no
# cutoff, and each is timed on the first use of its root family in the
# worker, root system and cached tables included: g2's comes first,
# since spectrum cells use G2 too, and the others come last, since a
# slow build before the spectrum cells made them read up to a third
# faster.  Flag and fiber cutoffs stay small: their class-one weights
# grow fast with the cutoff.  The base cells reach a few hundred
# values, so several weights share a value.
GRID = (IMPORTS + [("build_fibration", "g2", 2, None)]
        + [("flag_spectrum", kind, n, 16)
         for kind, n in (("su", 5), ("so-odd", 5), ("sp", 5), ("so-even", 6),
                         ("g2", 2))]
        + [("fiber_spectrum", kind, n, 8)
           for kind, n in (("sp", 5), ("so-even", 6), ("sp", 6),
                           ("so-even", 7))]
        + [("base_spectrum", kind, n, cutoff)
           for kind, n in (("sp", 5), ("so-even", 6), ("sp", 6),
                           ("so-even", 7), ("g2", 2))
           for cutoff in (30, 90)]
        + [("build_fibration", kind, n, None)
           for kind, n in (("su", 20), ("su", 40), ("so-odd", 20), ("sp", 20),
                           ("so-even", 20))])

# (function, kind, rank, t_min or None): instants down to t_min, each
# solved as a surd and flagged, and the verify audit.  Each builds its
# fibration untimed, then empties the class-one walk cache, as the
# spectrum cells do.  An instants cell digests (str(u), beta, mult,
# is_bifurcation) per instant, so the digest reads the exact record
# alone.
SOLVE = ([("degeneracy_instants", kind, n, t_min)
          for kind, n, t_min in (("su", 2, Fraction(7, 1000)),
                                 ("so-odd", 2, Fraction(8, 1000)),
                                 ("sp", 3, Fraction(45, 1000)))]
         + [("audit", kind, n, None) for kind, n in (("su", 3), ("sp", 5))])
GRID += SOLVE

# Cells timed cold, after every flagvar cache is emptied: the table of
# simple-root coordinates, the Weyl rows (which read that table where it
# exists), a build, and scal(t) with its build, at ranks where the
# positive roots run to hundreds or thousands; then the first flag
# eigenvalue mu1 and the first fiber eigenvalue phi1 with its build,
# whose enumerations form the generators' Gram products.  They come
# last, so emptying the caches leaves the cells above untouched.
COLD = ([(name, "su", n, None) for name in ("_root_coordinates", "_weyl_rows")
         for n in (40, 60)]
        + [("build_fibration", "su", 60, None)]
        + [("scal", kind, n, None)
           for kind, n in (("su", 30), ("su", 40), ("so-odd", 20), ("sp", 20),
                           ("so-even", 20))]
        + [(name, "su", n, None) for name in ("flag_minimum", "phi1")
           for n in (40, 80)])
GRID += COLD


def cell_key(cell):
    """The report's name of a grid cell: its fields, the cutoff if any."""
    return " ".join(str(field) for field in cell if field is not None)


def clear_caches():
    """Empty every lru_cache in the loaded flagvar modules."""
    for module in list(sys.modules.values()):
        if module.__name__.startswith("flagvar"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def digest(result):
    return hashlib.sha256(repr(result).encode()).hexdigest()


def worker():
    """Time every grid cell once; print {cell: [seconds, output digest]},
    leaving out a cell whose function this checkout lacks.
    A build_fibration cell digests the partition and the fiber's simple
    roots, a scal or phi1 cell the value."""
    out = {}
    for cell in IMPORTS:
        gc.collect()
        start = time.perf_counter()
        importlib.import_module(cell[1])
        seconds = time.perf_counter() - start
        out[cell_key(cell)] = [seconds, digest(sorted(
            name for name in sys.modules if name.startswith("flagvar."))
            if cell[1] == "flagvar.cli" else None)]
    from flagvar import bifurcation, catalog, spectra
    from flagvar.fibration import FibrationFamily, build_fibration
    clear_walks = getattr(getattr(spectra, "_class_one_spectrum", None),
                          "cache_clear", lambda: None)
    for cell in GRID[len(IMPORTS):]:
        name, kind, n, cutoff = cell
        family = FibrationFamily(kind, n)
        if cell in COLD:
            clear_caches()
        gc.collect()
        if cell in SOLVE:
            fib = build_fibration(family)
            clear_walks()
            start = time.perf_counter()
            if name == "audit":
                result = catalog.audit(fib)
            else:
                result = bifurcation.degeneracy_instants(
                    fib, bifurcation.instant_base(fib, cutoff))
            seconds = time.perf_counter() - start
            if name != "audit":
                result = [(str(inst.u), inst.beta, inst.mult,
                           inst.is_bifurcation) for inst in result]
        elif name == "build_fibration":
            start = time.perf_counter()
            fib = build_fibration(family)
            seconds = time.perf_counter() - start
            result = (fib.vertical_roots, fib.horizontal_roots,
                      fib.fiber_simple_roots)
        elif name in ("scal", "phi1"):
            start = time.perf_counter()
            result = getattr(build_fibration(family), name)
            seconds = time.perf_counter() - start
        elif cutoff is None:  # keyed by the root family
            table = getattr(spectra, name, None)
            if table is None:
                continue
            start = time.perf_counter()
            result = table(family.root_family)
            seconds = time.perf_counter() - start
        else:
            # Only a fiber cell builds its fibration, untimed: a build
            # may fill caches that the other cells must pay for.
            arg = (build_fibration(family) if name == "fiber_spectrum"
                   else family.root_family if name == "flag_spectrum"
                   else family)
            clear_walks()
            start = time.perf_counter()
            result = getattr(spectra, name)(arg, cutoff)
            seconds = time.perf_counter() - start
            # A cached walk comes back as a tuple, an uncached one may
            # be a list: the digest reads the entries alone.
            result = list(result)
        out[cell_key(cell)] = [seconds, digest(result)]
    json.dump(out, sys.stdout)


def run_once(checkout):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--worker"], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not os.path.isdir(os.path.join(checkout, "src", "flagvar")):
            parser.error("{} is not a checkout: no src/flagvar".format(
                checkout))
    runs = {"parent": [], "change": []}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side)))
    keys = [cell_key(cell) for cell in GRID]
    every = runs["parent"] + runs["change"]
    shared = [key for key in keys if all(key in run for run in every)]
    print("{:<36} {:>10} {:>10} {:>6}".format(
        "cell", "parent_s", "change_s", "won"))
    for run in every:
        run["total"] = [sum(run[key][0] for key in shared), None]
    for key in keys + ["total"]:
        medians = ["{:>10.4f}".format(statistics.median(
            run[key][0] for run in runs[side])) if key in runs[side][0]
            else "{:>10}".format("-") for side in ("parent", "change")]
        if key in shared or key == "total":
            won = "{:>3}/{}".format(sum(
                c[key][0] < p[key][0]
                for p, c in zip(runs["parent"], runs["change"])), PAIRS)
        else:
            won = "{:>6}".format("-")
        print("{:<36} {} {} {}".format(key, *medians, won))
    same = all(len({run[key][1] for run in every}) == 1 for key in shared)
    print("outputs equal at both checkouts: {} ({} cells, {} runs)".format(
        "yes" if same else "NO", len(shared), 2 * PAIRS))
    return 0 if same else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
