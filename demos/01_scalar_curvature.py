"""Walk through the scalar-curvature assembly for the five families.

For each fibration the scalar curvature of the fiber-scaled metric is a
rational function (A + C t^2 + E t^4) / (D t^2).  The coefficients are
sums of squared bracket constants over triples of positive roots, taken
in closed form from Casimir constants: one sum over all positive roots
and one over each simple factor of the fiber.  Nothing here is numeric
approximation, every entry is a Fraction.

Run from the repository root:

    python3 demos/01_scalar_curvature.py
"""

from fractions import Fraction

from flagvar.catalog import scal_closed_form, su_triple_census
from flagvar.fibration import FibrationFamily, build_fibration

CASES = [("su", 2), ("su", 3), ("so-odd", 2), ("so-odd", 4),
         ("sp", 3), ("so-even", 4), ("g2", 2)]


def show(kind, n):
    fib = build_fibration(FibrationFamily(kind, n))
    poly = fib.scal
    closed = scal_closed_form(fib.family)
    an, cn, en = poly.normalized()
    print("{}  ({} -> {} fiber {})".format(
        fib.family.label, fib.base_id, fib.fiber_id, fib.dim_fiber))
    print("  assembled  A={} C={} E={}".format(an, cn, en))
    ca, cc, ce = closed.normalized()
    print("  catalogued A={} C={} E={}".format(ca, cc, ce))
    print("  identical: {}".format(poly.same_function(closed)))
    # Two facts that pin the assembled polynomial.  First, the t^2
    # coefficient is exactly the number of horizontal root summands:
    print("  C equals |H|: {} == {}".format(cn, len(fib.horizontal_roots)))
    # Second, at t = 1 the metric is the normal one and the value is
    # (dim G + rank)/4.
    rank = fib.family.root_family.rank
    dim_g = fib.m_total + rank
    print("  scal at t=1: {} == (dim G + rank)/4 = {}".format(
        fib.scal_over_m_minus_1(1) * (fib.m_total - 1),
        Fraction(dim_g + rank, 4)))
    print()


def census_line(n):
    counts = su_triple_census(build_fibration(FibrationFamily("su", n)))
    print("  n={}: ordered counts {}, predicted ({}, {}, {})".format(
        n, counts, n ** 3 - 3 * n ** 2 + 2 * n, 2 * n * (n - 1),
        n * (n - 1)))


if __name__ == "__main__":
    for kind, n in CASES:
        show(kind, n)

    print("triple census for the projective family, every value 1/(n+1):")
    for n in range(2, 6):
        census_line(n)
