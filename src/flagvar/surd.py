"""Exact numbers of the form (p + q*sqrt(d))/r over the integers.

These carry the solutions u = t**2 of the degeneracy quadratics, so
equality, ordering and sign must all be decided exactly.  p, q and r
are Python ints with r > 0 and d squarefree (d = 0 exactly when the
value is rational), the usual integer representation of Q(sqrt(d))
(Cohen, *A Course in Computational Algebraic Number Theory*, §5).

The constructor takes ints or rationals.  It stores integral input as
given, unreduced, and scales rational input by the lcm of the three
denominators, so ``str`` always shows integers.  Arithmetic results
come from a trusted constructor that does no ``Fraction`` work and no
re-split of d.  Same-radicand arithmetic stays closed in Q(sqrt(d));
sign and every comparison are integer compares.  Across radicands the
scaled difference is a + b*sqrt(d1) - c*sqrt(d2): the two terms' signs
decide unless they agree, and then one squaring leaves the sign of a
surd in Q(sqrt(d1)).  One integer enclosure serves presentation only:
``bounds`` and the correctly rounded floats.
"""

import operator
from fractions import Fraction
from math import isqrt, lcm

from .exact import float_from_bounds, squarefree_split


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


def _surd(p, q, r, d):
    """Trusted constructor: ints with r > 0 and d squarefree or 0."""
    x = object.__new__(QuadraticSurd)
    x.p, x.q, x.r, x.d = p, q, r, d if q else 0
    return x


class QuadraticSurd:
    """Value (p + q*sqrt(d))/r with integers p, q, r > 0 and squarefree d."""

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p, q=0, r=1, d=0):
        if r == 0:
            raise ZeroDivisionError("surd with zero denominator")
        d = int(d)
        if d < 0:
            raise ValueError("negative radicand")
        # Pull square factors out of d, fold rational cases to d = 0.
        s, d = squarefree_split(d)
        q = q * s
        if d == 1:
            p, q, d = p + q, 0, 0
        if r < 0:
            p, q, r = -p, -q, -r
        if q == 0:
            d = 0
        if not (type(p) is type(q) is type(r) is int):
            # Clear denominators so the fields, and str, are integers.
            p, q, r = Fraction(p), Fraction(q), Fraction(r)
            m = lcm(p.denominator, q.denominator, r.denominator)
            p, q, r = (int(x * m) for x in (p, q, r))
        self.p, self.q, self.r, self.d = p, q, r, d

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, x):
        return cls(Fraction(x))

    # -- predicates -------------------------------------------------------

    def is_rational(self):
        return self.d == 0

    def to_fraction(self):
        if not self.is_rational():
            raise ValueError("irrational surd")
        return Fraction(self.p, self.r)

    # -- arithmetic (closed for equal radicands or rational operands) -----

    def _operand(self, other):
        """(p, q, r, common radicand) of other, or None if foreign."""
        parts = _parts(other)
        if parts is None:
            return None
        p, q, r, d = parts
        if self.d and d and d != self.d:
            raise ValueError("arithmetic across different radicands")
        return p, q, r, self.d or d

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, r, d = o
        return _surd(self.p * r + p * self.r, self.q * r + q * self.r,
                     self.r * r, d)

    __radd__ = __add__

    def __neg__(self):
        return _surd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, r, d = o
        return _surd(self.p * r - p * self.r, self.q * r - q * self.r,
                     self.r * r, d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, r, d = o
        return _surd(self.p * p + self.q * q * d, self.p * q + self.q * p,
                     self.r * r, d)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the conjugate."""
        p, q, r, d = self.p, self.q, self.r, self.d
        # p = +-q*sqrt(d) cannot hold for irrational sqrt(d) unless 0.
        norm = p * p - q * q * d
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        if norm < 0:
            p, q, norm = -p, -q, -norm
        return _surd(p * r, -q * r, norm, d)

    # -- exact sign and order ---------------------------------------------

    def sign(self):
        """Exact sign of the value: -1, 0 or 1."""
        return _sign(self.p, self.q, self.d)  # r > 0 by normalization

    def _cmp(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        p, q, r, d = parts
        if d == self.d or not d or not self.d:
            # Same field: the sign of the difference times r*r' > 0.
            return _sign(self.p * r - p * self.r, self.q * r - q * self.r,
                         self.d or d)
        # r*r' times the difference is X - Y, X = a + b*sqrt(d1) and
        # Y = c*sqrt(d2), neither 0 (b, c != 0, sqrt(d1) irrational).
        # Unequal signs decide; equal ones multiply the sign of X*X - Y*Y.
        a, b, c = self.p * r - p * self.r, self.q * r, q * self.r
        left = _sign(a, b, self.d)
        if (left > 0) != (c > 0):
            return left
        return left * _sign(a * a + b * b * self.d - c * c * d, 2 * a * b,
                            self.d)

    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __hash__(self):
        if self.is_rational():
            return hash(self.to_fraction())
        return hash((Fraction(self.p, self.r), Fraction(self.q, self.r),
                     self.d))

    # -- presentation -----------------------------------------------------

    def _enclosure(self, bits):
        """Integers (lo, hi, den) with lo/den <= value <= hi/den.

        den = r*2**bits and lo, hi are p*2**bits + q*isqrt(d*4**bits)
        and that plus q, in order, so the width is |q|/den; a rational
        value gives (p, p, r).  Only ``bounds`` and the floats read it.
        """
        p, q, r, d = self.p, self.q, self.r, self.d
        if d == 0:
            return p, p, r
        lo = (p << bits) + q * isqrt(d << 2 * bits)
        hi = lo + q
        if q < 0:
            lo, hi = hi, lo
        return lo, hi, r << bits

    def bounds(self, bits=64):
        """Rational enclosure (lo, hi) of the value, width about 2**-bits."""
        lo, hi, den = self._enclosure(bits)
        return Fraction(lo, den), Fraction(hi, den)

    def to_float(self, bits=64):
        """Float presentation plus a certified absolute error bound."""
        return float_from_bounds(*self._enclosure(bits))

    def __float__(self):
        return self.to_float()[0]

    def sqrt_to_float(self, bits=64):
        """Certified float of sqrt(value); value must be nonnegative.

        The square roots of the enclosure's ends are enclosed on the
        2**-bits grid, the lower end clamped at 0.
        """
        lo, hi, den = self._enclosure(bits)
        if hi < 0:
            raise ValueError("square root of negative surd")
        lo_r = isqrt((lo << 2 * bits) // den) if lo > 0 else 0
        hi_r = isqrt((hi << 2 * bits) // den) + 1 if hi > 0 else 0
        return float_from_bounds(lo_r, hi_r, 1 << bits)

    def __repr__(self):
        return "QuadraticSurd({!r}, {!r}, {!r}, {!r})".format(
            self.p, self.q, self.r, self.d)

    def __str__(self):
        if self.d == 0:
            return str(Fraction(self.p, self.r))
        num = "{}{}{}*sqrt({})".format(
            self.p, "+" if self.q >= 0 else "-", abs(self.q), self.d)
        if self.r == 1:
            return num
        return "({})/{}".format(num, self.r)
