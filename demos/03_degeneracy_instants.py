"""Degeneracy instants as exact quadratic surds.

A degeneracy instant is a t where the normalized scalar curvature
scal(t)/(m-1) meets a Laplacian eigenvalue of the scaled metric.  For
constant (base) eigenvalues this reduces to a quadratic in u = t^2 with
one positive root, carried exactly as (p + q*sqrt(d))/r.

Run from the repository root:

    python3 demos/03_degeneracy_instants.py
"""

from fractions import Fraction

from flagvar.bifurcation import (degeneracy_instants, instant_base,
                                 instant_below)
from flagvar.catalog import cross_check_closed_forms
from flagvar.fibration import FibrationFamily, build_fibration

fib = build_fibration(FibrationFamily("su", 2))
instants = degeneracy_instants(fib, instant_base(fib, Fraction(1, 10)))

# The rigidity threshold is the first instant, that of the first base
# eigenvalue; the solution is rigid above it.
b = instants[0]
print("SU(3)/T^2 rigidity threshold:")
print("  u = {}  t = {:.12f}  (certified presentation error {:.1e})"
      .format(b.u, *b.u.sqrt_to_float()))

print()
print("first five instants, strictly decreasing:")
for inst in instants:
    print("  beta={:<5} mult={:<4} u={:<22} t={:.6f} bifurcation={}"
          .format(str(inst.beta), inst.mult, str(inst.u),
                  inst.u.sqrt_to_float()[0], inst.is_bifurcation))

print()
print("instants fall below any epsilon; first below 1/100 per family:")
for kind, n in [("su", 2), ("so-odd", 2), ("sp", 3), ("so-even", 4),
                ("g2", 2)]:
    f = build_fibration(FibrationFamily(kind, n))
    inst = instant_below(f, Fraction(1, 100))
    print("  {:<12} beta={:<8} t={:.6f}".format(
        f.family.names[0], str(inst.beta), inst.u.sqrt_to_float()[0]))

# The catalogued closed-form instant sequences are recomputed against
# the solved roots.  The projective family agrees everywhere; the
# sphere sequence has a radicand off by a factor 4 past the first
# entry, and the exceptional sequence disagrees whenever both exponents
# are positive.
print()
for kind, n, tmin in [("su", 2, Fraction(1, 10)),
                      ("so-odd", 2, Fraction(1, 5)),
                      ("g2", 2, Fraction(11, 100))]:
    f = build_fibration(FibrationFamily(kind, n))
    base = instant_base(f, tmin)
    rows = cross_check_closed_forms(f, base, degeneracy_instants(f, base))
    print("{} cross-check:".format(f.family.names[0]))
    for row in rows:
        mark = "agree" if row["agree"] else "DIFFER"
        note = "  ({})".format(row["note"]) if row["note"] else ""
        print("  {} solved={:.9f} catalogued={:.9f} {}{}".format(
            row["label"], row["solved"].sqrt_to_float()[0],
            row["catalogued"].sqrt_to_float()[0], mark, note))
