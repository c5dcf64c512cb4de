"""Laplacian spectra: full flag, symmetric base, and fiber.

The flag spectrum is enumerated from the Casimir values of the
class-one weights under a cutoff; the enumerated form never decreases
in any coordinate, so nothing under the cutoff is missed.  Base spectra
carry exact Weyl-dimension multiplicities; these are the only
multiplicities the Morse index ever needs.  Fiber spectra come from the
same enumeration over the fiber's simple roots, valued under the form
of G.

Run from the repository root:

    python3 demos/02_spectra.py
"""

from fractions import Fraction

from flagvar.catalog import (bn_dominance_row_report,
                             cn_first_eigenvalue_report)
from flagvar.fibration import FibrationFamily, build_fibration
from flagvar.rootsys import FamilyTag
from flagvar.spectra import (base_spectrum, fiber_spectrum, flag_minimum,
                             flag_spectrum)

print("smallest flag eigenvalue per root family:")
for tag in [FamilyTag("A", 2), FamilyTag("A", 5), FamilyTag("B", 2),
            FamilyTag("B", 4), FamilyTag("C", 3), FamilyTag("D", 4),
            FamilyTag("G2", 2)]:
    entry = flag_minimum(tag)
    name = tag.kind if tag.kind == "G2" else tag.kind + str(tag.rank)
    print("  {}: {} at p = {}".format(name, entry.value, entry.label[0]))

print()
print("flag values of A2 up to 4:",
      [str(e.value) for e in flag_spectrum(FamilyTag("A", 2), Fraction(4))])

print()
print("base spectra (value, multiplicity, generator exponents):")
for kind, n in [("su", 2), ("so-odd", 2), ("sp", 3), ("so-even", 4),
                ("g2", 2)]:
    fam = FibrationFamily(kind, n)
    rows = base_spectrum(fam, Fraction(3))
    head = ", ".join("({}, {}, {})".format(e.value, e.mult, e.label)
                     for e in rows[:3])
    print("  {}: {}".format(fam.names[0], head))

print()
fib = build_fibration(FibrationFamily("g2", 2))
print("fiber of G2/T (two spheres, under the form of G2):",
      [str(e.value) for e in fiber_spectrum(fib, Fraction(4))])
print("its first value, phi1 of the bifurcation test:", fib.phi1)

# Two catalogued statements do not survive recomputation.  The reports
# below show every side; the library always computes from the Casimir.
print()
report = cn_first_eigenvalue_report(3)
print("sp flag first eigenvalue: Casimir gives {} at {}, catalogued "
      "polynomial {} at {}, catalogued statement says {}".format(
          report["casimir_min"], report["casimir_argmin"],
          report["formula_min"], report["formula_argmin"],
          report["stated"]))

report = bn_dominance_row_report(4)
print("so-odd dominance system accepts {} -> {}, actual dominance -> {}"
      .format(report["witness"], report["catalogued_accepts"],
              report["dominant"]))
