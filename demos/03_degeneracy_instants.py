"""Degeneracy instants as exact quadratic surds.

A degeneracy instant is a t where the normalized scalar curvature
scal(t)/(m-1) meets a Laplacian eigenvalue of the scaled metric.  For
constant (base) eigenvalues this reduces to a quadratic in u = t^2 with
one positive root, carried exactly as (p + q*sqrt(d))/r.

Run from the repository root:

    python3 demos/03_degeneracy_instants.py
"""

from fractions import Fraction

from flagvar.bifurcation import (degeneracy_instants, instant_below,
                                 rigidity_threshold)
from flagvar.catalog import cross_check_closed_forms
from flagvar.fibration import FibrationFamily, build_fibration

fib = build_fibration(FibrationFamily("su", 2))

b = rigidity_threshold(fib)
print("SU(3)/T^2 rigidity threshold:")
print("  u = {}  t = {:.12f}  (certified presentation error {:.1e})"
      .format(b.u, b.t, b.t_error))

print()
print("first five instants, strictly decreasing:")
for inst in degeneracy_instants(fib, Fraction(1, 10)):
    print("  beta={:<5} mult={:<4} u={:<22} t={:.6f} bifurcation={}"
          .format(str(inst.beta), inst.mult, str(inst.u), inst.t,
                  inst.is_bifurcation))

print()
print("instants fall below any epsilon; first below 1/100 per family:")
for kind, n in [("su", 2), ("so-odd", 2), ("sp", 3), ("so-even", 4),
                ("g2", 2)]:
    f = build_fibration(FibrationFamily(kind, n))
    inst = instant_below(f, Fraction(1, 100))
    print("  {:<12} beta={:<8} t={:.6f}".format(f.family.label,
                                                str(inst.beta), inst.t))

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
    rows = cross_check_closed_forms(f, degeneracy_instants(f, tmin))
    print("{} cross-check:".format(f.family.label))
    for row in rows:
        mark = "agree" if row["agree"] else "DIFFER"
        note = "  ({})".format(row["note"]) if row["note"] else ""
        print("  {} solved={:.9f} catalogued={:.9f} {}{}".format(
            row["label"], row["solved"], row["catalogued"], mark, note))
