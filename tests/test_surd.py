"""Tests for exact quadratic surd normalization, sign, ordering and
presentation, against the Fraction surd oracle."""

import importlib.util
import pathlib
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagvar.bifurcation import degeneracy_instants
from flagvar.exact import common_denominator
from flagvar.fibration import FibrationFamily, build_fibration
from flagvar.surd import QuadraticSurd
from oracles import FractionSurd, fraction_surd

small_rationals = st.fractions(min_value=-50, max_value=50,
                               max_denominator=20)
radicands = st.sampled_from([2, 3, 5, 7, 85, 290, 2873])


def test_normalization_pulls_square_factor():
    x = QuadraticSurd(-18, 1, 2, 340)  # (-18 + sqrt(340))/2
    assert x.d == 85
    assert x == QuadraticSurd(-9, 1, 1, 85)


def test_normalization_folds_perfect_square():
    x = QuadraticSurd(1, 1, 1, 9)  # 1 + sqrt(9) = 4
    assert x.d == 0
    assert x == 4


def test_normalization_flips_negative_denominator():
    x = QuadraticSurd(1, 1, -2, 5)
    assert x.r > 0
    assert x == QuadraticSurd(-1, -1, 2, 5)


def test_zero_coefficient_clears_radicand():
    x = QuadraticSurd(3, 0, 2, 7)
    assert x.d == 0
    assert x == Fraction(3, 2)


def test_constructor_rejects_bad_input():
    with pytest.raises(ZeroDivisionError):
        QuadraticSurd(1, 1, 0, 5)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 1, -5)


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
    # Both 64-bit ends round to one float, unlike sqrt(85) - 9 in
    # floats, which cancels to 0.21954445729288707.
    lo, hi = x.bounds()
    assert float(lo) == float(hi) == 0.2195444572928873


def test_sqrt_to_float_certified():
    x = QuadraticSurd(-9, 1, 1, 85)
    t, err = x.sqrt_to_float()
    assert err <= 1e-12
    assert abs(t - 0.46855571418230224) <= 1e-12
    with pytest.raises(ValueError):
        QuadraticSurd(-5, 0, 1, 0).sqrt_to_float()


def test_a_surd_is_unhashable():
    # Nothing hashes a surd, so it keeps no hash to match its equality
    # with rationals.
    assert QuadraticSurd.__hash__ is None
    with pytest.raises(TypeError):
        hash(QuadraticSurd(-9, 1, 1, 85))


def test_the_tracer_finds_every_surd_method_it_wraps():
    # ``perfbench/run.py --trace 1`` wraps these methods by name on the
    # class, as ``vars(QuadraticSurd)[attr]``; a missing one breaks it.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench/spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SURD_METHODS
    for attr in spans.SURD_METHODS:
        assert callable(vars(QuadraticSurd).get(attr)), attr


def test_str_forms():
    assert str(QuadraticSurd(-9, 1, 1, 85)) == "-9+1*sqrt(85)"
    assert str(QuadraticSurd(-18, 1, 2, 340)) == "(-18+2*sqrt(85))/2"
    assert str(QuadraticSurd(3, 0, 2, 0)) == "3/2"


@given(small_rationals, small_rationals, radicands)
def test_sign_matches_float(p, q, d):
    (pn, qn), r = common_denominator((p, q))
    x = QuadraticSurd(pn, qn, r, d)
    approx = float(p) + float(q) * d**0.5
    if abs(approx) > 1e-6:
        assert x.sign() == (1 if approx > 0 else -1)


def _value(x):
    """The canonical (p/r, q/r, d) of either kind of surd."""
    return Fraction(x.p) / x.r, Fraction(x.q) / x.r, x.d


wide_radicands = st.one_of(radicands, st.integers(0, 2**40 - 1))
coefficients = st.fractions(min_value=-10**6, max_value=10**6,
                            max_denominator=10**4)
denominators = coefficients.filter(lambda x: x != 0)
surd_args = st.tuples(coefficients, coefficients, denominators,
                      wide_radicands)


def _integral(args):
    """Integer arguments of the same surd: p, q and r times the lcm of
    their denominators."""
    (p, q, r), _ = common_denominator(args[:3])
    return p, q, r, args[3]


@given(surd_args, surd_args, st.integers(32, 128))
def test_kernel_matches_the_fraction_oracle(args, other_args, bits):
    x, ox = QuadraticSurd(*_integral(args)), FractionSurd(*args)
    y, oy = QuadraticSurd(*_integral(other_args)), FractionSurd(*other_args)
    assert _value(x) == _value(ox)
    assert x.sign() == ox.sign()
    assert x.bounds(bits) == ox.bounds(bits)
    if ox.bounds(96)[1] < 0:
        with pytest.raises(ValueError):
            x.sqrt_to_float()
    else:
        assert x.sqrt_to_float() == ox.sqrt_to_float()
    for rational in (args[0], args[0] + 1, 0):
        assert (x == rational) == (ox.cmp(rational) == 0)
        assert (x < rational) == (ox.cmp(rational) < 0)
    assert (x == y) == (ox.cmp(oy) == 0)
    assert (x < y) == (ox.cmp(oy) < 0)


@given(st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
                 st.integers(1, 10**6) | st.integers(-10**6, -1),
                 wide_radicands))
def test_integral_input_prints_as_the_fraction_oracle(args):
    assert str(QuadraticSurd(*args)) == str(FractionSurd(*args))


def test_zero_sqrt_to_float_matches_the_oracle():
    for zero in (QuadraticSurd(0), QuadraticSurd(0, 5, 3, 0)):
        assert zero.sqrt_to_float() == FractionSurd(0).sqrt_to_float()
        assert zero.sqrt_to_float() == (0.0, 2.0 ** -1074)


def _assert_orders_as_the_oracle(x, y):
    for a, b in ((x, y), (y, x)):
        expected = fraction_surd(a).cmp(fraction_surd(b))
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
