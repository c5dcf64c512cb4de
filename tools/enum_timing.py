"""In-process timing of the spectrum enumerators at two checkouts.

    python tools/enum_timing.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository.  Each of the
PAIRS pairs runs one fresh interpreter per checkout, alternating which
goes first; each interpreter imports flagvar from its checkout's ``src``
and times, with ``time.perf_counter`` and one call per cell of the
fixed grid below, ``import flagvar`` and then ``import flagvar.cli``,
``build_fibration``, ``flag_spectrum``, ``fiber_spectrum``,
``base_spectrum``, the root tables (``build_root_system``, plus
``spectra._root_coordinates`` where a checkout has it) and
``_weyl_rows``, ``flag_minimum``, and scal(t) and phi1 as
``build_fibration(...).scal`` and ``.phi1``, the instant solving
``degeneracy_instants(fib, instant_base(fib, t_min))``, the verify
checks ``catalog.audit(fib)``, the printer's floats
``[i.u.sqrt_to_float() for i in instants]`` over instants solved
untimed, and the decay witness ``spherical_multiple_above`` at
s(eps**2), cold (after every flagvar cache is emptied) where the grid
says so; a cold ``base_spectrum`` or witness cell rebuilds the root
system untimed first.  Each spectrum cell times a
first walk: where a checkout caches its class-one walks
(``spectra._class_one_spectrum``), that cache alone is emptied before
the cell, and the root tables stay warm.  A full garbage collection
runs before each timed cell, so no cell pays for the garbage of another.
Workers inherit the environment, so with PYTHONDONTWRITEBYTECODE=1 and
no ``__pycache__`` in the checkouts the import cells pay the compile
from source that a cold command-line query pays.
The report gives, per call and summed, the median seconds at each
checkout and the change's share of pairs won, then one line saying
whether every output was equal at both checkouts and, if not, the key
of each cell whose digest differs.  Each run also writes the report
as BENCH_<CHANGE's short commit>.json at the root of this checkout:
each side's short commit, marked -dirty if its files differ from it
("unknown" off git), the Python version, ``os.cpu_count()``, the
medians of PAIRS bare starts ``python -c pass`` and ``python -S -c
pass``, and per cell each side's median and interquartile range in
seconds and the share of pairs the change won, so the records of
successive commits form a history.  A digest reads what a cell computes,
never the order of the positive roots, which no printed output reads:
the root table cells digest the sorted (root, k) pairs, the
build_fibration cells the sorted vertical roots, horizontal roots and
fiber simple roots, and the _weyl_rows cells (sorted rows, den).  A
cell whose function a checkout lacks shows "-" there and stays out of
the sum and the comparison.  Standard library only.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
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

# (function, kind, rank, t_min or eps): the printer's float t of every
# instant down to t_min, solved untimed, and the multiple of the first
# spherical generator above s(eps**2), its target made untimed.  Both
# digest their output.
PRINT = [("sqrt_to_float", "su", 2, Fraction(7, 1000)),
         ("spherical_multiple_above", "su", 2, Fraction(1, 10**6))]
GRID += PRINT

# Cells timed cold, after every flagvar cache is emptied: the root
# system with its table of simple-root coordinates, the Weyl rows (which
# read that table), a build, and scal(t) with its build, at ranks where the
# positive roots run to hundreds or thousands; then the first flag
# eigenvalue mu1, whose enumeration forms the generators' Gram products,
# and the first fiber eigenvalue phi1 with its build, for su and for
# the other three kinds; then the base's first values and the decay
# witness at su 80, which read the base form, over a warm root system.
# They come last, so emptying the caches leaves the cells above
# untouched.
COLD = ([(name, "su", n, None) for name in ("root_table", "_weyl_rows")
         for n in (40, 60)]
        + [("build_fibration", "su", 60, None)]
        + [("scal", kind, n, None)
           for kind, n in (("su", 30), ("su", 40), ("su", 100), ("so-odd", 20),
                           ("sp", 20), ("so-even", 20))]
        + [(name, "su", n, None) for name in ("flag_minimum", "phi1")
           for n in (40, 80)]
        + [("phi1", kind, 20, None) for kind in ("so-odd", "sp", "so-even")]
        + [("base_spectrum", "su", 80, 4),
           ("spherical_multiple_above", "su", 80, Fraction(1, 10**6))])
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


def _line(entry):
    """(value, mult, label) of a spectral line, the fields that every
    checkout's ``SpectrumEntry`` holds (an older one also held an
    origin tag)."""
    return entry.value, entry.mult, entry.label


def digest(result):
    return hashlib.sha256(repr(result).encode()).hexdigest()


def worker():
    """Time every grid cell once; print {cell: [seconds, output digest]},
    leaving out a cell whose function this checkout lacks.
    A root table cell digests the sorted (root, k) pairs, its k read off
    ``spectra._root_coordinates`` where the checkout has it, else off
    ``RootSystem.coordinates``; a build_fibration cell the sorted
    vertical roots, horizontal roots and fiber simple roots; a
    _weyl_rows cell (sorted rows, den); a scal or phi1 cell the value;
    a spectrum or flag_minimum cell the (value, mult, label) of each
    line."""
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
    from flagvar.rootsys import build_root_system
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
        elif name == "sqrt_to_float":
            fib = build_fibration(family)
            instants = bifurcation.degeneracy_instants(
                fib, bifurcation.instant_base(fib, cutoff))
            gc.collect()
            start = time.perf_counter()
            result = [i.u.sqrt_to_float() for i in instants]
            seconds = time.perf_counter() - start
        elif name == "spherical_multiple_above":
            # The fibration's build leaves the root system warm.
            target = build_fibration(family).scal_over_m_minus_1(
                cutoff * cutoff)
            gc.collect()
            start = time.perf_counter()
            result = spectra.spherical_multiple_above(family, target)
            seconds = time.perf_counter() - start
        elif name == "root_table":
            coordinates = getattr(spectra, "_root_coordinates", None)
            start = time.perf_counter()
            rs = build_root_system(family.root_family)
            table = (coordinates(family.root_family) if coordinates
                     else rs.coordinates)
            seconds = time.perf_counter() - start
            result = sorted(zip(rs.positive_roots, table))
        elif name == "build_fibration":
            start = time.perf_counter()
            fib = build_fibration(family)
            seconds = time.perf_counter() - start
            result = [sorted(fib.vertical_roots),
                      sorted(fib.horizontal_roots),
                      sorted(fib.fiber_simple_roots)]
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
            if name == "flag_minimum":
                result = _line(result)
            else:
                rows, den = result
                result = sorted(rows), den
        else:
            # Only a fiber cell builds its fibration, untimed: a build
            # may fill caches that the other cells must pay for.
            arg = (build_fibration(family) if name == "fiber_spectrum"
                   else family.root_family if name == "flag_spectrum"
                   else family)
            if cell in COLD:
                build_root_system(family.root_family)
            clear_walks()
            start = time.perf_counter()
            result = getattr(spectra, name)(arg, cutoff)
            seconds = time.perf_counter() - start
            # A cached walk comes back as a tuple, an uncached one may
            # be a list: the digest reads the entries alone.
            result = [_line(entry) for entry in result]
        out[cell_key(cell)] = [seconds, digest(result)]
    json.dump(out, sys.stdout)


def run_once(checkout):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--worker"], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def commit(checkout):
    """The short commit of ``checkout``, -dirty if its files differ from
    it, or "unknown" where it is no git checkout."""
    done = subprocess.run(["git", "-C", checkout, "describe", "--always",
                           "--dirty", "--exclude=*"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def bare_start(flags):
    """Median seconds of PAIRS runs of ``python FLAGS -c pass``."""
    times = []
    for _ in range(PAIRS):
        start = time.perf_counter()
        subprocess.run([sys.executable, *flags, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spread(times):
    """{median_s, iqr_s} of one side's seconds for one cell."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "iqr_s": q3 - q1}


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
    for run in every:
        run["total"] = [sum(run[key][0] for key in shared), None]
    cells = {}
    for key in keys + ["total"]:
        cells[key] = {side: spread([run[key][0] for run in runs[side]])
                      if key in runs[side][0] else None
                      for side in ("parent", "change")}
        cells[key]["won"] = (sum(
            c[key][0] < p[key][0]
            for p, c in zip(runs["parent"], runs["change"])) / PAIRS
            if key in shared or key == "total" else None)
    print("{:<42} {:>10} {:>10} {:>6}".format(
        "cell", "parent_s", "change_s", "won"))
    for key, cell in cells.items():
        medians = ["{:>10.4f}".format(cell[side]["median_s"]) if cell[side]
                   else "{:>10}".format("-") for side in ("parent", "change")]
        won = ("{:>3}/{}".format(round(cell["won"] * PAIRS), PAIRS)
               if cell["won"] is not None else "{:>6}".format("-"))
        print("{:<42} {} {} {}".format(key, *medians, won))
    differ = [key for key in shared
              if len({run[key][1] for run in every}) > 1]
    print("outputs equal at both checkouts: {} ({} cells, {} runs)".format(
        "NO" if differ else "yes", len(shared), 2 * PAIRS))
    for key in differ:
        print("  differs: {}".format(key))
    commits = {side: commit(getattr(args, side))
               for side in ("parent", "change")}
    record = {"commits": commits, "python": platform.python_version(),
              "cpu_count": os.cpu_count(), "pairs": PAIRS,
              "bare_start_s": {"python -c pass": bare_start([]),
                               "python -S -c pass": bare_start(["-S"])},
              "outputs_equal": not differ, "differs": differ,
              "cells": cells}
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_{}.json".format(commits["change"]))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print("record: {}".format(path))
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
