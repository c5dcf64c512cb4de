"""Tests for exact quadratic surd arithmetic and ordering."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagvar.bifurcation import degeneracy_instants
from flagvar.fibration import FibrationFamily, build_fibration
from flagvar.surd import QuadraticSurd

small_rationals = st.fractions(min_value=-50, max_value=50,
                               max_denominator=20)
nonzero_rationals = small_rationals.filter(lambda x: x != 0)
radicands = st.sampled_from([2, 3, 5, 7, 85, 290, 2873])


def test_normalization_pulls_square_factor():
    x = QuadraticSurd(-18, 1, 2, 340)  # (-18 + sqrt(340))/2
    assert x.d == 85
    assert x == QuadraticSurd(-9, 1, 1, 85)


def test_normalization_folds_perfect_square():
    x = QuadraticSurd(1, 1, 1, 9)  # 1 + sqrt(9) = 4
    assert x.is_rational()
    assert x.to_fraction() == 4


def test_normalization_flips_negative_denominator():
    x = QuadraticSurd(1, 1, -2, 5)
    assert x.r > 0
    assert x == QuadraticSurd(-1, -1, 2, 5)


def test_zero_coefficient_clears_radicand():
    x = QuadraticSurd(3, 0, 2, 7)
    assert x.d == 0
    assert x.to_fraction() == Fraction(3, 2)


def test_constructor_rejects_bad_input():
    with pytest.raises(ZeroDivisionError):
        QuadraticSurd(1, 1, 0, 5)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 1, -5)


def test_to_fraction_rejects_irrational():
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 1, 2).to_fraction()


def test_same_radicand_arithmetic():
    x = QuadraticSurd(1, 1, 1, 5)   # 1 + sqrt(5)
    y = QuadraticSurd(2, -1, 1, 5)  # 2 - sqrt(5)
    assert x + y == QuadraticSurd(3, 0, 1, 0)
    assert x * y == QuadraticSurd(-3, 1, 1, 5)
    assert x - x == 0
    assert (2 * x) == QuadraticSurd(2, 2, 1, 5)
    assert (x + 1) == QuadraticSurd(2, 1, 1, 5)


def test_cross_radicand_arithmetic_rejected():
    x = QuadraticSurd(0, 1, 1, 2)
    y = QuadraticSurd(0, 1, 1, 3)
    with pytest.raises(ValueError):
        x + y


def test_inverse_golden_ratio_flavor():
    x = QuadraticSurd(1, 1, 2, 5)  # (1 + sqrt(5))/2
    assert x * x.inverse() == 1
    assert x.inverse() == QuadraticSurd(-1, 1, 2, 5)  # 1/phi = phi - 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        QuadraticSurd(0, 0, 1, 0).inverse()


def test_sign_cases():
    assert QuadraticSurd(-9, 1, 1, 85).sign() == 1    # sqrt(85) > 9
    assert QuadraticSurd(-10, 1, 1, 85).sign() == -1  # sqrt(85) < 10
    assert QuadraticSurd(-2, 1, 1, 4).sign() == 0
    assert QuadraticSurd(0, -3, 1, 2).sign() == -1
    assert QuadraticSurd(5, 0, 2, 0).sign() == 1


def test_ordering_same_radicand():
    a = QuadraticSurd(-9, 1, 1, 85)
    b = QuadraticSurd(-8, 1, 1, 85)
    assert a < b
    assert b > a
    assert a <= a
    assert a == a


def test_ordering_mixed_radicands():
    # sqrt(2) < sqrt(3) lies outside either field: one squaring decides.
    assert QuadraticSurd(0, 1, 1, 2) < QuadraticSurd(0, 1, 1, 3)
    assert QuadraticSurd(1, 1, 1, 2) > QuadraticSurd(0, 1, 1, 5)
    # Rational-valued operands short-circuit to exact equality.
    assert QuadraticSurd(4, 0, 2, 2) == QuadraticSurd(2, 0, 1, 7)


def test_comparison_against_rationals():
    b = QuadraticSurd(-4, 2, 1, 5)  # -4 + 2*sqrt(5), about 0.472
    assert 0 < b < 1
    assert b < Fraction(1, 2)
    assert b > Fraction(2, 5)


def test_bounds_and_float():
    x = QuadraticSurd(-9, 1, 1, 85)
    lo, hi = x.bounds(bits=80)
    assert hi - lo <= Fraction(1, 2**79)
    # The enclosure really brackets sqrt(85) - 9.
    assert (lo + 9) ** 2 <= 85 <= (hi + 9) ** 2
    val, err = x.to_float()
    assert abs(val - 0.2195444572928871) <= err + 1e-15


def test_sqrt_to_float_certified():
    x = QuadraticSurd(-9, 1, 1, 85)
    t, err = x.sqrt_to_float(bits=96)
    assert err <= 1e-12
    assert abs(t - 0.46855571418230224) <= 1e-12
    with pytest.raises(ValueError):
        QuadraticSurd(-5, 0, 1, 0).sqrt_to_float()


def test_str_forms():
    assert str(QuadraticSurd(-9, 1, 1, 85)) == "-9+1*sqrt(85)"
    assert str(QuadraticSurd(-18, 1, 2, 340)) == "(-18+2*sqrt(85))/2"
    assert str(QuadraticSurd(3, 0, 2, 0)) == "3/2"


def test_hash_consistent_with_rational_equality():
    assert hash(QuadraticSurd(4, 0, 2, 2)) == hash(Fraction(2))
    x = QuadraticSurd(-9, 1, 1, 85)
    assert hash(x) == hash(QuadraticSurd(-18, 1, 2, 340))


@given(small_rationals)
def test_rational_round_trip(x):
    s = QuadraticSurd.from_rational(x)
    assert s.is_rational()
    assert s.to_fraction() == x


@given(small_rationals, small_rationals, radicands)
def test_sign_matches_float(p, q, d):
    x = QuadraticSurd(p, q, 1, d)
    approx = float(p) + float(q) * d**0.5
    if abs(approx) > 1e-6:
        assert x.sign() == (1 if approx > 0 else -1)


@given(small_rationals, nonzero_rationals, radicands)
def test_inverse_is_multiplicative_inverse(p, q, d):
    x = QuadraticSurd(p, q, 1, d)
    if x.sign() != 0:
        assert x * x.inverse() == 1


@given(small_rationals, small_rationals, small_rationals,
       small_rationals, radicands)
def test_field_operations_commute_with_floats(p1, q1, p2, q2, d):
    x = QuadraticSurd(p1, q1, 1, d)
    y = QuadraticSurd(p2, q2, 1, d)
    s = x + y
    m = x * y
    fx, fy = float(x), float(y)
    assert abs(float(s) - (fx + fy)) < 1e-6
    assert abs(float(m) - fx * fy) < 1e-5


# -- the Fraction kernel this one replaced, as an independent oracle --------

def _split_by_odd_trial_division(n):
    """n = s*s*d with d squarefree, dividing by 2 and every odd number."""
    if n == 0:
        return 0, 0
    s = d = 1
    p = 2
    while p * p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
        p += 1 if p == 2 else 2
    root = isqrt(n)
    if root * root == n:
        return s * root, d
    return s, d * n


def sqrt_bounds(x, bits=60):
    """Rational enclosure of sqrt(x) for a nonnegative Fraction x.

    Returns (lo, hi) with lo**2 <= x <= hi**2 and hi - lo <= 2**-bits.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), Fraction(0)
    scale = 1 << bits
    root = isqrt((x.numerator * scale * scale) // x.denominator)
    return Fraction(root, scale), Fraction(root + 1, scale)


def _fraction_float_from_bounds(lo, hi):
    val = float((lo + hi) / 2)
    return val, float(hi - lo) / 2 + abs(val) * 2.0 ** -52 + 2.0 ** -1074


class _FractionSurd:
    """(p + q*sqrt(d))/r with Fraction p, q, r: every operation through
    Fraction arithmetic and rational enclosures."""

    def __init__(self, p, q=0, r=1, d=0):
        p, q, r = Fraction(p), Fraction(q), Fraction(r)
        s, d = _split_by_odd_trial_division(int(d))
        q = q * s
        if d == 1:
            p, q, d = p + q, Fraction(0), 0
        if r < 0:
            p, q, r = -p, -q, -r
        if q == 0:
            d = 0
        self.p, self.q, self.r, self.d = p, q, r, d

    def _coerce(self, other):
        if isinstance(other, _FractionSurd):
            return other
        return _FractionSurd(other)

    def __add__(self, other):
        other = self._coerce(other)
        return _FractionSurd(self.p * other.r + other.p * self.r,
                             self.q * other.r + other.q * self.r,
                             self.r * other.r, self.d or other.d)

    def __mul__(self, other):
        other = self._coerce(other)
        d = self.d or other.d
        return _FractionSurd(self.p * other.p + self.q * other.q * d,
                             self.p * other.q + self.q * other.p,
                             self.r * other.r, d)

    def inverse(self):
        norm = self.p * self.p - self.q * self.q * self.d
        return _FractionSurd(self.p * self.r / norm, -self.q * self.r / norm,
                             1, self.d)

    def sign(self):
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return 0 if p == 0 else (1 if p > 0 else -1)
        if p == 0 or (p > 0) == (q > 0):
            return 1 if q > 0 else -1
        lhs, rhs = p * p, q * q * d
        if lhs == rhs:
            return 0
        return (1 if p > 0 else -1) if lhs > rhs else (1 if q > 0 else -1)

    def cmp(self, other):
        other = self._coerce(other)
        if self.d == other.d or self.d == 0 or other.d == 0:
            return (self + other * -1).sign()
        bits = 64
        while True:
            lo1, hi1 = self.bounds(bits)
            lo2, hi2 = other.bounds(bits)
            if hi1 < lo2:
                return -1
            if hi2 < lo1:
                return 1
            bits *= 2

    def bounds(self, bits=64):
        if self.d == 0:
            v = self.p / self.r
            return v, v
        lo_s, hi_s = sqrt_bounds(Fraction(self.d), bits)
        if self.q < 0:
            lo_s, hi_s = hi_s, lo_s
        return ((self.p + self.q * lo_s) / self.r,
                (self.p + self.q * hi_s) / self.r)

    def to_float(self, bits=64):
        return _fraction_float_from_bounds(*self.bounds(bits))

    def sqrt_to_float(self, bits=64):
        lo, hi = self.bounds(bits)
        if hi < 0:
            raise ValueError("square root of negative surd")
        lo_r, _ = sqrt_bounds(max(lo, Fraction(0)), bits)
        _, hi_r = sqrt_bounds(hi, bits)
        return _fraction_float_from_bounds(lo_r, hi_r)

    def __str__(self):
        if self.d == 0:
            return str(self.p / self.r)
        num = "{}{}{}*sqrt({})".format(
            self.p, "+" if self.q >= 0 else "-", abs(self.q), self.d)
        return num if self.r == 1 else "({})/{}".format(num, self.r)


def _value(x):
    """The canonical (p/r, q/r, d) of either kind of surd."""
    return Fraction(x.p) / x.r, Fraction(x.q) / x.r, x.d


wide_radicands = st.one_of(radicands, st.integers(0, 2**40 - 1))
coefficients = st.fractions(min_value=-10**6, max_value=10**6,
                            max_denominator=10**4)
denominators = coefficients.filter(lambda x: x != 0)
surd_args = st.tuples(coefficients, coefficients, denominators,
                      wide_radicands)


@given(surd_args, surd_args, st.integers(32, 128))
def test_kernel_matches_the_fraction_oracle(args, other_args, bits):
    x, ox = QuadraticSurd(*args), _FractionSurd(*args)
    y, oy = QuadraticSurd(*other_args), _FractionSurd(*other_args)
    assert _value(x) == _value(ox)
    assert x.sign() == ox.sign()
    assert x.bounds(bits) == ox.bounds(bits)
    assert x.to_float(bits) == ox.to_float(bits)
    if ox.bounds(96)[1] < 0:
        with pytest.raises(ValueError):
            x.sqrt_to_float(96)
    else:
        assert x.sqrt_to_float(96) == ox.sqrt_to_float(96)
    if ox.sign() != 0:
        assert _value(x.inverse()) == _value(ox.inverse())
    for rational in (args[0], args[0] + 1, 0):
        assert (x == rational) == (ox.cmp(rational) == 0)
        assert (x < rational) == (ox.cmp(rational) < 0)
    assert (x == y) == (ox.cmp(oy) == 0)
    assert (x < y) == (ox.cmp(oy) < 0)
    # Field arithmetic needs a shared radicand; rationals share any.
    same = QuadraticSurd(other_args[0], other_args[1], other_args[2], x.d)
    osame = _FractionSurd(other_args[0], other_args[1], other_args[2], ox.d)
    assert _value(x + same) == _value(ox + osame)
    assert _value(x * same) == _value(ox * osame)
    assert _value(x + args[1]) == _value(ox + args[1])
    assert _value(x * args[2]) == _value(ox * args[2])


@given(st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
                 st.integers(1, 10**6) | st.integers(-10**6, -1),
                 wide_radicands))
def test_integral_input_prints_as_the_fraction_oracle(args):
    assert str(QuadraticSurd(*args)) == str(_FractionSurd(*args))


def test_zero_sqrt_to_float_matches_the_oracle():
    for zero in (QuadraticSurd(0), QuadraticSurd(Fraction(0), 5, 3, 0)):
        assert zero.sqrt_to_float(96) == _FractionSurd(0).sqrt_to_float(96)
        assert zero.sqrt_to_float(96) == (0.0, 2.0 ** -1074)


def _assert_orders_as_the_oracle(x, y):
    for a, b in ((x, y), (y, x)):
        expected = _FractionSurd(a.p, a.q, a.r, a.d).cmp(
            _FractionSurd(b.p, b.q, b.r, b.d))
        assert ((a < b), (a == b), (a > b)) == (
            expected < 0, expected == 0, expected > 0)


def _below_sqrt2_scaled(a):
    """a + sqrt(3) < 2**70*sqrt(2), decided on plain integers."""
    rest = 2**141 - a * a - 3
    return rest > 0 and 12 * a * a < rest * rest


def test_planted_near_tie_across_radicands():
    # y = (a + sqrt(3))/2**70 with a = floor(2**70*sqrt(2) - sqrt(3)) sits
    # within 2**-70 of x = sqrt(2), inside both 64-bit enclosures.
    a = isqrt(2 << 140) - 1
    assert _below_sqrt2_scaled(a) and not _below_sqrt2_scaled(a + 1)
    x = QuadraticSurd(0, 1, 1, 2)
    for a_side, below in ((a, True), (a + 1, False)):
        y = QuadraticSurd(a_side, 1, 2**70, 3)
        (x_lo, x_hi), (y_lo, y_hi) = x.bounds(64), y.bounds(64)
        assert x_lo <= y_hi and y_lo <= x_hi
        assert (y < x) == below and (y > x) != below and y != x
        _assert_orders_as_the_oracle(x, y)


@pytest.mark.parametrize("kind,n", [("su", 2), ("su", 3), ("so-odd", 2)])
def test_consecutive_instants_order_as_the_fraction_oracle(kind, n):
    fib = build_fibration(FibrationFamily(kind, n))
    instants = degeneracy_instants(fib, Fraction(7, 1000))
    assert len(instants) > 50
    for earlier, later in zip(instants, instants[1:]):
        _assert_orders_as_the_oracle(earlier.u, later.u)
