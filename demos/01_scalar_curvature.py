"""Walk through the scalar-curvature assembly for the five families.

For each fibration the scalar curvature of the fiber-scaled metric is a
rational function (A + C t^2 + E t^4) / (D t^2).  The coefficients come
from summing squared bracket constants over triples of positive roots;
nothing here is numeric approximation, every entry is a Fraction.

Run from the repository root:

    python3 demos/01_scalar_curvature.py
"""

from fractions import Fraction

from flagvar import (FibrationFamily, build_fibration, scal_closed_form,
                     triples)

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
    fib = build_fibration(FibrationFamily("su", n))
    n1, n2, n3 = 0, 0, 0
    for rec in triples(fib):
        if rec.klass == "vvv":
            n1 += 1
        else:
            n2 += 1
    counts = (6 * n1, 4 * n2, 2 * n2)
    print("  n={}: ordered counts {}, predicted ({}, {}, {})".format(
        n, counts, n ** 3 - 3 * n ** 2 + 2 * n, 2 * n * (n - 1),
        n * (n - 1)))


if __name__ == "__main__":
    for kind, n in CASES:
        show(kind, n)

    print("triple census for the projective family, every value 1/(n+1):")
    for n in range(2, 6):
        census_line(n)
