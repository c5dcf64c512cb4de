"""Tests for exact quadratic surd normalization, sign, ordering within
one field and presentation, against the Fraction surd oracle."""

import importlib.util
import operator
import pathlib
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flagvar.bifurcation import degeneracy_instants, instant_base
from flagvar.exact import common_denominator
from flagvar.fibration import FibrationFamily, build_fibration
from flagvar.surd import QuadraticSurd, _sign
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


def _surd_sign(x):
    """The sign of a surd's value, by the integer kernel (r > 0)."""
    return _sign(x.p, x.q, x.d)


def test_sign_cases():
    assert _surd_sign(QuadraticSurd(-9, 1, 1, 85)) == 1    # sqrt(85) > 9
    assert _surd_sign(QuadraticSurd(-10, 1, 1, 85)) == -1  # sqrt(85) < 10
    assert _surd_sign(QuadraticSurd(-2, 1, 1, 4)) == 0
    assert _surd_sign(QuadraticSurd(0, -3, 1, 2)) == -1
    assert _surd_sign(QuadraticSurd(5, 0, 2, 0)) == 1


def test_ordering_same_radicand():
    a = QuadraticSurd(-9, 1, 1, 85)
    b = QuadraticSurd(-8, 1, 1, 85)
    assert a < b
    assert b > a
    assert a <= a
    assert a == a


def test_distinct_fields_are_unequal_and_unordered():
    # sqrt(2) and sqrt(3) lie in different fields: such values are never
    # equal, and a surd orders only within its field.
    x, y = QuadraticSurd(0, 1, 1, 2), QuadraticSurd(0, 1, 1, 3)
    assert not x == y and x != y
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(x, y)
    # A rational value lies in every field.
    assert QuadraticSurd(4, 0, 2, 2) == QuadraticSurd(2, 0, 1, 7)
    assert x < QuadraticSurd(3, 0, 2, 5) < y


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


def test_sqrt_to_float_refuses_a_wide_enclosure():
    # q = 2**70 over r = 1 leaves u's enclosure 2**-26 wide, with u in
    # (0, 1): its square root cannot be shown to within 1e-12.
    x = QuadraticSurd(-isqrt(2 << 140), 2**70, 1, 2)
    assert 0 < x < 1
    with pytest.raises(AssertionError, match="presentation error"):
        x.sqrt_to_float()


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
        assert _surd_sign(x) == (1 if approx > 0 else -1)


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


def _outcome(sqrt_to_float):
    """The certified float pair, or the type of the exception raised."""
    try:
        return sqrt_to_float()
    except (AssertionError, ValueError) as exc:
        return type(exc)


# The first example's u lies in (0, 1) with an enclosure 2**-26 wide:
# both refuse its square root.
@example((-isqrt(2 << 140), 2**70, 1, 2), (1, 1, 1, 0), 64)
@given(surd_args, surd_args, st.integers(32, 128))
def test_kernel_matches_the_fraction_oracle(args, other_args, bits):
    # y shares x's radicand, so the two lie in one field.
    x, ox = QuadraticSurd(*_integral(args)), FractionSurd(*args)
    same_field = other_args[:3] + args[3:]
    y, oy = QuadraticSurd(*_integral(same_field)), FractionSurd(*same_field)
    assert _value(x) == _value(ox)
    assert _surd_sign(x) == ox.sign()
    assert x.bounds(bits) == ox.bounds(bits)
    assert _outcome(x.sqrt_to_float) == _outcome(ox.sqrt_to_float)
    for rational in (args[0], args[0] + 1, 0):
        assert (x == rational) == (ox.cmp(rational) == 0)
        assert (x < rational) == (ox.cmp(rational) < 0)
    assert (x == y) == (ox.cmp(oy) == 0)
    assert (x < y) == (ox.cmp(oy) < 0)


def _encloses_sqrt(ox, lo, hi, den):
    """Whether 0 <= lo/den <= sqrt(ox) <= hi/den, ox an oracle surd,
    decided in the oracle's exact arithmetic."""
    return (0 <= lo <= hi and ox.cmp(Fraction(lo, den) ** 2) >= 0
            and ox.cmp(Fraction(hi, den) ** 2) <= 0)


def _covers(t, err, lo, hi, den):
    """Whether [t - err, t + err] contains [lo/den, hi/den], in exact
    Fractions."""
    return (Fraction(t) - Fraction(err) <= Fraction(lo, den)
            and Fraction(hi, den) <= Fraction(t) + Fraction(err))


@example((-9, 1, 1, 85))
@example((-isqrt(2 << 140), 2**70, 1, 2))
@given(surd_args)
def test_sqrt_enclosure_matches_the_fraction_oracle(args):
    # The audit places its midpoint from this enclosure, and the printed
    # t and t_error come from it.
    x, ox = QuadraticSurd(*_integral(args)), FractionSurd(*args)
    enclosure = _outcome(x.sqrt_enclosure)
    if isinstance(enclosure, type):
        assert enclosure is _outcome(ox.sqrt_to_float)
        return
    assert _encloses_sqrt(ox, *enclosure)
    assert _covers(*x.sqrt_to_float(), *enclosure)


def test_an_enclosure_one_step_low_fails_the_check():
    x = QuadraticSurd(-9, 1, 1, 85)
    lo, hi, den = x.sqrt_enclosure()
    assert _encloses_sqrt(fraction_surd(x), lo, hi, den)
    assert not _encloses_sqrt(fraction_surd(x), lo, hi - 1, den)


@given(st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
                 st.integers(1, 10**6) | st.integers(-10**6, -1),
                 wide_radicands))
def test_integral_input_prints_as_the_fraction_oracle(args):
    assert str(QuadraticSurd(*args)) == str(FractionSurd(*args))


def test_zero_sqrt_to_float_matches_the_oracle():
    for zero in (QuadraticSurd(0), QuadraticSurd(0, 5, 3, 0)):
        assert zero.sqrt_to_float() == FractionSurd(0).sqrt_to_float()
        assert zero.sqrt_to_float() == (0.0, 2.0 ** -1074)


@pytest.mark.parametrize("kind,n", [("su", 2), ("su", 3), ("so-odd", 2)])
def test_consecutive_instants_order_as_the_fraction_oracle(kind, n):
    # The instants are checked to decrease by their rising beta alone;
    # the Fraction oracle orders the surds themselves, across fields.
    fib = build_fibration(FibrationFamily(kind, n))
    instants = degeneracy_instants(fib, instant_base(fib, Fraction(7, 1000)))
    assert len(instants) > 50
    for earlier, later in zip(instants, instants[1:]):
        assert later.beta > earlier.beta
        assert fraction_surd(later.u).cmp(fraction_surd(earlier.u)) < 0
