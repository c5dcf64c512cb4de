"""Exact numbers of the form (p + q*sqrt(d))/r over the integers.

These carry the solutions u = t**2 of the degeneracy quadratics.  p, q
and r are Python ints in the usual normal form of Q(sqrt(d)) (Cohen,
*A Course in Computational Algebraic Number Theory*, §5): d squarefree,
d = 0 exactly when q = 0, r > 0 and gcd(p, q, r) = 1.

The constructor takes any ints and reduces them to that form, so a
surd's fields, and ``str``, are functions of its value alone, not of
the path that made it.  A surd has no arithmetic and decides no
verdict: every instant verdict compares a base eigenvalue beta with
scal/(m-1) at a rational u (``bifurcation``).  A surd orders only
within its field: against a rational or a surd of the same radicand the
sign of the difference is one integer compare.  Two distinct irrational
radicands give no order (``<`` raises TypeError) and never compare
equal.  A surd has no hash.

One integer enclosure of the value, ``bounds``, over r*2**96, gives
``sqrt_enclosure``, the integer enclosure of t = sqrt(u) on the 2**-96
grid.  The audit places its three-solutions midpoint from it, and its
midpoint float, ``sqrt_to_float``, is the one place a float t is made,
for the printers.
"""

import operator
from fractions import Fraction
from math import gcd, isqrt

from .exact import squarefree_split


def _sign(p, q, d):
    """Exact sign of p + q*sqrt(d) for ints p, q and d >= 0."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    # Opposite signs: the larger of p*p and q*q*d wins.
    lhs = p * p
    rhs = q * q * d
    if lhs == rhs:
        return 0
    return (1 if p > 0 else -1) if lhs > rhs else (1 if q > 0 else -1)


def _parts(x):
    """(p, q, r, d) of a surd, int or Fraction, else None."""
    if isinstance(x, QuadraticSurd):
        return x.p, x.q, x.r, x.d
    if isinstance(x, int):
        return x, 0, 1, 0
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator, 0
    return None


def _comparison(op):
    """The rich comparison ``op(self._cmp(other), 0)``."""
    def compare(self, other):
        r = self._cmp(other)
        return r if r is NotImplemented else op(r, 0)
    return compare


class QuadraticSurd:
    """Value (p + q*sqrt(d))/r in normal form: integers with d
    squarefree, d = 0 exactly when q = 0, r > 0 and gcd(p, q, r) = 1."""

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p, q=0, r=1, d=0):
        if r == 0:
            raise ZeroDivisionError("surd with zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        # Pull square factors out of d, fold rational cases to d = 0,
        # then divide out the common factor, signed as r.
        s, d = squarefree_split(d)
        q = q * s
        if d == 1:
            p, q, d = p + q, 0, 0
        if q == 0:
            d = 0
        g = gcd(p, q, r) if r > 0 else -gcd(p, q, r)
        self.p, self.q, self.r, self.d = p // g, q // g, r // g, d

    # -- order within one field -------------------------------------------

    def _cmp(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        p, q, r, d = parts
        if d and self.d and d != self.d:
            return NotImplemented  # distinct fields: no order, never equal
        # The sign of the difference times r*r' > 0.
        return _sign(self.p * r - p * self.r, self.q * r - q * self.r,
                     self.d or d)

    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    # -- presentation -----------------------------------------------------

    def bounds(self):
        """Integers (lo, hi, den) with lo/den <= value <= hi/den.

        den is r*2**96, lo and hi are p*2**96 + q*isqrt(d*2**192) and
        that plus q, in order, so the width is |q|/den; q = 0, a
        rational value, gives lo = hi.
        """
        p, q, r = self.p, self.q, self.r
        lo = (p << 96) + q * isqrt(self.d << 192)
        hi = lo + q
        if q < 0:
            lo, hi = hi, lo
        return lo, hi, r << 96

    def sqrt_enclosure(self):
        """Integers (lo, hi, den) with lo/den <= sqrt(value) <= hi/den.

        den is 2**96: the square roots of the ends of ``bounds`` are
        enclosed on that grid, the lower end clamped at 0 and the upper
        one rounded up unless it is 0.  The value must be nonnegative.
        An enclosure wider than 1e-12 is a presentation fault
        (AssertionError).
        """
        lo, hi, den = self.bounds()
        if hi < 0:
            raise ValueError("square root of negative surd")
        lo_r = isqrt((max(lo, 0) << 192) // den)
        hi_r = isqrt((hi << 192) // den) + (hi > 0)
        if (hi_r - lo_r) * 10**12 > 1 << 96:
            raise AssertionError(
                "presentation error exceeded the certified bound")
        return lo_r, hi_r, 1 << 96

    def sqrt_to_float(self):
        """Certified float of sqrt(value) and its error bound.

        The float is the correctly rounded midpoint of
        ``sqrt_enclosure``; the bound covers half its width and the
        rounding (under half an ulp, padded to a full ulp), so it stays
        below 1e-12.
        """
        lo, hi, den = self.sqrt_enclosure()
        val = (lo + hi) / (2 * den)
        ulp = abs(val) * 2.0 ** -52 + 2.0 ** -1074
        return val, (hi - lo) / den / 2 + ulp

    def __str__(self):
        if self.d == 0:
            return str(Fraction(self.p, self.r))
        num = "{}{}{}*sqrt({})".format(
            self.p, "+" if self.q >= 0 else "-", abs(self.q), self.d)
        if self.r == 1:
            return num
        return "({})/{}".format(num, self.r)
