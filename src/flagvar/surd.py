"""Exact numbers of the form (p + q*sqrt(d))/r.

These carry the solutions u = t**2 of the degeneracy quadratics, so
equality, ordering and sign must all be decided exactly.  Same-radicand
arithmetic stays closed in Q(sqrt(d)); comparisons across different
radicands fall back to certified interval refinement, which terminates
because such values are never equal and distinct values eventually
separate their enclosures.
"""

from fractions import Fraction

from .exact import float_from_bounds, sqrt_bounds, squarefree_split


class QuadraticSurd:
    """Value (p + q*sqrt(d))/r with rational p, q, r and squarefree d."""

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p, q=0, r=1, d=0):
        p, q, r = Fraction(p), Fraction(q), Fraction(r)
        if r == 0:
            raise ZeroDivisionError("surd with zero denominator")
        d = int(d)
        if d < 0:
            raise ValueError("negative radicand")
        # Pull square factors out of d, fold rational cases to d = 0.
        s, d = squarefree_split(d)
        q = q * s
        if d == 1:
            p, q, d = p + q, Fraction(0), 0
        if r < 0:
            p, q, r = -p, -q, -r
        if q == 0:
            d = 0
        self.p, self.q, self.r, self.d = p, q, r, d

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, x):
        return cls(Fraction(x), 0, 1, 0)

    # -- predicates -------------------------------------------------------

    def is_rational(self):
        return self.d == 0

    def to_fraction(self):
        if not self.is_rational():
            raise ValueError("irrational surd")
        return self.p / self.r

    # -- arithmetic (closed for equal radicands or rational operands) -----

    def _coerce(self, other):
        if isinstance(other, QuadraticSurd):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd.from_rational(other)
        return None

    def _common_d(self, other):
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise ValueError("arithmetic across different radicands")

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_d(other)
        p = self.p * other.r + other.p * self.r
        q = self.q * other.r + other.q * self.r
        return QuadraticSurd(p, q, self.r * other.r, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_d(other)
        p = self.p * other.p + self.q * other.q * d
        q = self.p * other.q + self.q * other.p
        return QuadraticSurd(p, q, self.r * other.r, d)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the conjugate."""
        norm = self.p * self.p - self.q * self.q * self.d
        if norm == 0:
            if self.p == 0 and self.q == 0:
                raise ZeroDivisionError("inverse of zero")
            # p = +-q*sqrt(d) cannot hold for irrational sqrt(d) unless 0.
            raise ZeroDivisionError("inverse of zero surd")
        return QuadraticSurd(self.p * self.r / norm,
                             -self.q * self.r / norm,
                             1, self.d)

    # -- exact sign and order ---------------------------------------------

    def sign(self):
        """Exact sign of the value: -1, 0 or 1."""
        p, q, d = self.p, self.q, self.d  # r > 0 by normalization
        if q == 0:
            return 0 if p == 0 else (1 if p > 0 else -1)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # Opposite signs: compare p*p against q*q*d.
        lhs = p * p
        rhs = q * q * d
        if lhs == rhs:
            return 0
        big_is_p = lhs > rhs
        if p > 0:
            return 1 if big_is_p else -1
        return -1 if big_is_p else 1

    def _cmp(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.d == other.d or self.d == 0 or other.d == 0:
            diff = self - other
            return diff.sign()
        # 1, sqrt(d1) and sqrt(d2) are Q-independent: the values differ.
        bits = 64
        while True:
            lo1, hi1 = self.bounds(bits)
            lo2, hi2 = other.bounds(bits)
            if hi1 < lo2:
                return -1
            if hi2 < lo1:
                return 1
            bits *= 2
            if bits > 1 << 16:
                raise RuntimeError("comparison failed to separate values")

    def __eq__(self, other):
        r = self._cmp(other)
        if r is NotImplemented:
            return NotImplemented
        return r == 0

    def __lt__(self, other):
        r = self._cmp(other)
        if r is NotImplemented:
            return NotImplemented
        return r < 0

    def __le__(self, other):
        r = self._cmp(other)
        if r is NotImplemented:
            return NotImplemented
        return r <= 0

    def __gt__(self, other):
        r = self._cmp(other)
        if r is NotImplemented:
            return NotImplemented
        return r > 0

    def __ge__(self, other):
        r = self._cmp(other)
        if r is NotImplemented:
            return NotImplemented
        return r >= 0

    def __hash__(self):
        if self.is_rational():
            return hash(self.to_fraction())
        return hash((self.p / self.r, self.q / self.r, self.d))

    # -- presentation -----------------------------------------------------

    def bounds(self, bits=64):
        """Rational enclosure (lo, hi) of the value, width about 2**-bits."""
        if self.d == 0:
            v = self.p / self.r
            return v, v
        lo_s, hi_s = sqrt_bounds(Fraction(self.d), bits)
        if self.q >= 0:
            lo = (self.p + self.q * lo_s) / self.r
            hi = (self.p + self.q * hi_s) / self.r
        else:
            lo = (self.p + self.q * hi_s) / self.r
            hi = (self.p + self.q * lo_s) / self.r
        return lo, hi

    def to_float(self, bits=64):
        """Float presentation plus a certified absolute error bound."""
        return float_from_bounds(*self.bounds(bits))

    def __float__(self):
        return self.to_float()[0]

    def sqrt_to_float(self, bits=64):
        """Certified float of sqrt(value); value must be nonnegative."""
        lo, hi = self.bounds(bits)
        if hi < 0:
            raise ValueError("square root of negative surd")
        lo = max(lo, Fraction(0))
        lo_r, _ = sqrt_bounds(lo, bits)
        _, hi_r = sqrt_bounds(hi, bits)
        return float_from_bounds(lo_r, hi_r)

    def __repr__(self):
        return "QuadraticSurd({!r}, {!r}, {!r}, {!r})".format(
            self.p, self.q, self.r, self.d)

    def __str__(self):
        if self.d == 0:
            return str(self.p / self.r)
        num = "{}{}{}*sqrt({})".format(
            self.p, "+" if self.q >= 0 else "-", abs(self.q), self.d)
        if self.r == 1:
            return num
        return "({})/{}".format(num, self.r)
