"""Tests for eigenvalue curves along the fiber-scaling family and the
exact gap certificate."""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flagvar import fibration
from flagvar.bifurcation import instant_base
from flagvar.catalog import CATALOGUE
from flagvar.curvature import ScalPoly
from flagvar.exact import common_denominator
from flagvar.fibration import FibrationFamily, build_fibration
from flagvar.spectra import (base_spectrum, fiber_spectrum, flag_minimum,
                             flag_spectrum)
from flagvar.variation import gap_certificate
from oracles import (gap_form, gap_quadratic, roots_in_unit_interval,
                     value_at_t, value_at_u)

CRITERION_CASES = ([("su", n) for n in range(2, 7)]
                   + [("so-odd", n) for n in (2, 4, 5, 6)]
                   + [("sp", n) for n in range(3, 7)]
                   + [("so-even", n) for n in range(4, 7)]
                   + [("g2", 2)])


def _fib(kind, n):
    return build_fibration(FibrationFamily(kind, n))


@dataclass(frozen=True)
class VariationEigenvalue:
    """Curve lambda(t) = mu + (1/t**2 - 1)*phi; phi = 0 means constant."""

    mu: Fraction
    phi: Fraction


def eigen_at(v, t):
    """Exact value of the curve at rational t in (0, 1]."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    return Fraction(v.mu) + (1 / (t * t) - 1) * Fraction(v.phi)


def constant_eigenvalues(fib, cutoff):
    """Values constant along the variation: exactly the base spectrum."""
    return base_spectrum(fib.family, cutoff)


def candidate_lambda1_window(fib, cutoff=Fraction(6)):
    """Data for the sandwich property mu1 <= lambda1(t) <= beta1.

    Builds the candidate first eigenvalue at rational t as the minimum
    of the constant curves and the curves mu_k + (1/t**2 - 1)*phi_j
    with j >= 1; combination curves alone are never trusted as actual
    eigenvalues, only this bounded minimum is used.
    """
    totals = [e.value for e in flag_spectrum(fib.family.root_family, cutoff)]
    fibers = [e.value for e in fiber_spectrum(fib, cutoff)]
    constants = [e.value for e in base_spectrum(fib.family, cutoff)]

    def candidate_at(t):
        t = Fraction(t)
        stretch = 1 / (t * t) - 1
        best = min(constants)
        for mu in totals:
            for phi in fibers:
                best = min(best, mu + stretch * phi)
        return best

    return {
        "mu1": flag_minimum(fib.family.root_family).value,
        "beta1": CATALOGUE[fib.family.kind].beta1(fib.family.n),
        "candidate_at": candidate_at,
    }


# -- single curves ---------------------------------------------------------

def test_eigen_at_values():
    ev = VariationEigenvalue(mu=Fraction(1), phi=Fraction(1))
    assert eigen_at(ev, Fraction(1, 2)) == 4
    assert eigen_at(ev, Fraction(1)) == 1
    flat = VariationEigenvalue(mu=Fraction(5, 3), phi=Fraction(0))
    assert eigen_at(flat, Fraction(1, 7)) == Fraction(5, 3)


def test_eigen_at_rejects_nonpositive_t():
    ev = VariationEigenvalue(mu=Fraction(1), phi=Fraction(1))
    with pytest.raises(ValueError):
        eigen_at(ev, Fraction(0))
    with pytest.raises(ValueError):
        eigen_at(ev, Fraction(-1, 2))


def test_constant_eigenvalues_are_the_base_lines():
    entries = constant_eigenvalues(_fib("su", 2), Fraction(3))
    assert [(e.value, e.mult) for e in entries] == [
        (Fraction(1), 8), (Fraction(8, 3), 27)]
    # A base line carries its Weyl-dimension multiplicity.
    assert all(e.mult is not None for e in entries)


# -- normalized scalar curvature ------------------------------------------

# The families and ranks of the golden digests.
GOLDEN_FAMILIES = [("su", 2), ("su", 4), ("so-odd", 2), ("sp", 3), ("sp", 4),
                   ("so-even", 4), ("g2", 2)]


def test_scal_over_m_minus_1_spot_values():
    f = _fib("su", 2)
    assert f.scal_over_m_minus_1(Fraction(1)) == Fraction(1, 2)
    g = _fib("g2", 2)
    assert g.scal_over_m_minus_1(Fraction(1)) == Fraction(4, 11)
    s = _fib("so-odd", 2)
    assert s.scal_over_m_minus_1(Fraction(1)) == Fraction(3, 7)


@pytest.mark.parametrize("kind,n", GOLDEN_FAMILIES)
def test_scal_over_m_minus_1_divides_scal_by_m_minus_1(kind, n):
    f = _fib(kind, n)
    grid = [Fraction(k, 37) for k in range(1, 38)]
    grid += [Fraction(1, 1000), Fraction(7, 1000), Fraction(999, 1000)]
    for t in grid:
        assert (f.scal_over_m_minus_1(t * t)
                == value_at_t(f.scal, t) / (f.m_total - 1))


@pytest.mark.parametrize("kind,n", GOLDEN_FAMILIES)
def test_gap_is_the_gap_quadratic_over_one_denominator(kind, n):
    for phi1 in (None, Fraction(1, 50)):
        f = build_fibration(FibrationFamily(kind, n), phi1)
        assert f.gap == gap_form(f)
        c0, c1, slope, c2, den = f.gap
        assert slope == -(f.m_total - 1) * f.scal.d * den
        assert c2 < 0 < c0 and den > 0


def _gap_at_points(f):
    """(beta, 0) for every entry of the base down to t = 1/5, then
    (mu1, phi1) and (mu1, phi1/1000)."""
    mu1 = flag_minimum(f.family.root_family).value
    return ([(entry.value, 0) for entry in instant_base(f, Fraction(1, 5))]
            + [(mu1, f.phi1), (mu1, f.phi1 / 1000)])


def _gap_at_is_the_gap_quadratic(f, mu, phi):
    a, b, e, k = f.gap_at(mu, phi)
    return ((Fraction(a, k), Fraction(b, k), Fraction(e, k))
            == gap_quadratic(f, mu, phi))


def _check_gap_at(f):
    for mu, phi in _gap_at_points(f):
        assert _gap_at_is_the_gap_quadratic(f, mu, phi)
        a, b, e, k = f.gap_at(mu, phi)
        assert e < 0 < k and all(isinstance(x, int) for x in (a, b, e, k))
        if phi == 0:
            assert f.gap_at(mu) == (a, b, e, k) and a > 0


def test_gap_and_scal_over_m_minus_1_with_a_non_unit_denominator(
        monkeypatch):
    # The assembly always gives d = 1; a patched scal(t) with rational
    # coefficients and d != 1 exercises the common denominator.
    for poly in (ScalPoly(Fraction(7, 3), Fraction(5, 2), Fraction(-3, 4),
                          Fraction(6, 5)),
                 ScalPoly(Fraction(2), Fraction(1, 9), Fraction(-5), 3)):
        monkeypatch.setattr(fibration, "scal_wz", lambda fib, p=poly: p)
        f = _fib("sp", 3)
        assert f.gap == gap_form(f)
        assert f.gap[2] == -(f.m_total - 1) * poly.d * f.gap[4]
        for t in (Fraction(1, 7), Fraction(2, 3), Fraction(1)):
            assert (f.scal_over_m_minus_1(t * t)
                    == value_at_t(poly, t) / (f.m_total - 1))
        _check_gap_at(f)


@pytest.mark.parametrize("kind,n", GOLDEN_FAMILIES)
def test_gap_at_is_the_gap_quadratic(kind, n):
    _check_gap_at(_fib(kind, n))


@pytest.mark.parametrize("kind,n", GOLDEN_FAMILIES)
def test_gap_at_fails_with_the_slope_sign_flipped(kind, n):
    # Planted control: a gap form whose slope has the wrong sign misreads
    # every point, since each has mu != 0 or phi != 0.
    f = _fib(kind, n)
    points = _gap_at_points(f)
    c0, c1, slope, c2, den = f.gap
    f.__dict__["gap"] = (c0, c1, -slope, c2, den)
    assert not any(_gap_at_is_the_gap_quadratic(f, mu, phi)
                   for mu, phi in points)


# -- the gap certificate ---------------------------------------------------

@pytest.mark.parametrize("kind,n", CRITERION_CASES)
def test_gap_certificate_holds_everywhere(kind, n):
    f = _fib(kind, n)
    report = gap_certificate(f)
    assert report["holds"]
    assert roots_in_unit_interval(*gap_quadratic(f, report["mu1"],
                                                 report["phi1"])) == 0
    assert report["value_at_one"] < 0


def test_gap_certificate_su2_report_fields():
    f = _fib("su", 2)
    report = gap_certificate(f)
    assert report["family"] == "su"
    assert report["n"] == 2
    assert report["mu1"] == 1
    # The first eigenvalue of SU(2)/T^1 under the form of SU(3).
    assert report["phi1"] == Fraction(2, 3)
    # The integer quadratic and its value at 1 over one denominator: the
    # gap quadratic is (-8/3, 1/3, -1/6), -5/2 at u = 1.
    assert report["polynomial"] == [-48, 6, -3]
    assert report["denominator"] == 18
    assert report["value_at_one"] == -45


def test_gap_certificate_negative_controls():
    # Shrinking phi1 far enough must break the certificate: the verdict
    # is computed, not assumed.  The fibration's phi1 is the one tested.
    f = build_fibration(FibrationFamily("su", 2), Fraction(1, 1000))
    weak_phi = gap_certificate(f)
    assert weak_phi["phi1"] == Fraction(1, 1000)
    assert not weak_phi["holds"]
    assert roots_in_unit_interval(*gap_quadratic(
        f, weak_phi["mu1"], weak_phi["phi1"])) == 1


def test_gap_certificate_needs_a_concave_quadratic(monkeypatch):
    # The concavity the integer sign cases rely on is E < 0, certified
    # where a fresh fibration derives scal(t): an assembly breaking it
    # never reaches the certificate.
    poly = _fib("su", 2).scal
    for e in (Fraction(0), Fraction(1, 7)):
        monkeypatch.setattr(fibration, "scal_wz", lambda fib, e=e: ScalPoly(
            poly.a, poly.c, e, poly.d))
        with pytest.raises(AssertionError, match="A > 0 > E"):
            gap_certificate(_fib("su", 2))


def test_gap_quadratic_is_the_curve_gap_scaled_by_u():
    # The oracle's c0 + c1*u + c2*u**2 is
    # d*(m-1)*u*(scal/(m-1) - mu - (1/u - 1)*phi).
    f = _fib("so-odd", 2)
    poly = f.scal
    mu, phi = Fraction(3, 4), Fraction(2, 9)
    c0, c1, c2 = gap_quadratic(f, mu, phi)
    for u in (Fraction(1, 9), Fraction(1, 2), Fraction(1)):
        curve = mu + (1 / u - 1) * phi
        expected = (poly.d * (f.m_total - 1) * u
                    * (value_at_u(poly, u) / (f.m_total - 1) - curve))
        assert c0 + c1 * u + c2 * u * u == expected


# Planted rational roots: generic, at 0 and 1, and 1 -+ 1/k for k up to
# 10**9; drawing the same root twice plants a double root.
_OFFSET = st.integers(min_value=2, max_value=10**9).map(
    lambda k: Fraction(1, k))
_PLANTED = st.one_of(
    st.fractions(min_value=-2, max_value=3, max_denominator=60),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
    _OFFSET.map(lambda h: 1 - h), _OFFSET.map(lambda h: 1 + h))
_LEAD = st.fractions(min_value=-1000, max_value=Fraction(-1, 1000),
                     max_denominator=1000)


@given(_PLANTED, _PLANTED, _LEAD)
def test_root_count_matches_planted_roots(r1, r2, lead):
    c0, c1, c2 = lead * r1 * r2, -lead * (r1 + r2), lead
    expected = len({r for r in (r1, r2) if 0 < r < 1})
    assert roots_in_unit_interval(c0, c1, c2) == expected


@given(_PLANTED, st.fractions(min_value=Fraction(1, 10**9), max_value=5),
       _LEAD)
def test_root_count_is_zero_without_real_roots(vertex, lift, lead):
    # lead*((u - vertex)**2 + lift) never vanishes.
    c0, c1, c2 = lead * (vertex * vertex + lift), -2 * lead * vertex, lead
    assert roots_in_unit_interval(c0, c1, c2) == 0


# Every family at ranks 2-6.
SMALL_RANKS = [(kind, n) for kind, low in (("su", 2), ("so-odd", 2),
                                           ("sp", 3), ("so-even", 4))
               for n in range(low, 7) if (kind, n) != ("so-odd", 3)]
SMALL_RANKS += [("g2", 2)]


def _by_root_count(coeffs):
    """The reference verdict on a concave quadratic: negative at 1, with
    no root in (0, 1)."""
    return sum(coeffs) < 0 and roots_in_unit_interval(*coeffs) == 0


@pytest.mark.parametrize("kind,n", SMALL_RANKS)
def test_gap_certificate_matches_the_root_count_oracle(kind, n):
    # phi1 scaled by j/40 for even j up to 80, and two small overrides:
    # both verdicts occur on every family.
    family = FibrationFamily(kind, n)
    phi1 = build_fibration(family).phi1
    verdicts = set()
    for phi in ([phi1 * Fraction(j, 40) for j in range(2, 81, 2)]
                + [Fraction(1, 1000), Fraction(1, 50)]):
        f = build_fibration(family, phi)
        report = gap_certificate(f)
        coeffs = gap_quadratic(f, report["mu1"], phi)
        assert report["holds"] == _by_root_count(coeffs)
        assert [Fraction(x, report["denominator"])
                for x in report["polynomial"]] == list(coeffs)
        assert (Fraction(report["value_at_one"], report["denominator"])
                == sum(coeffs))
        verdicts.add(report["holds"])
    assert verdicts == {True, False}


def _planted_verdict(q0, q1, q2):
    """The certificate's verdict on the integer quadratic (q0, q1, q2).

    su 2 has mu1 = 1, so at phi1 = 1 the gap form (q0 + 1, q1, -1, q2, 1)
    reads q = (q0, q1, q2); it is planted in the fibration's cache.
    """
    f = build_fibration(FibrationFamily("su", 2), 1)
    f.__dict__["gap"] = (q0 + 1, q1, -1, q2, 1)
    report = gap_certificate(f)
    assert report["polynomial"] == [q0, q1, q2]
    return report["holds"]


def _integers(coeffs):
    """A positive multiple of a rational quadratic, over the integers."""
    nums, _ = common_denominator(coeffs)
    return nums


@given(_PLANTED, _PLANTED, _LEAD)
@example(Fraction(0), Fraction(1), Fraction(-1))
@example(Fraction(1, 2), Fraction(1, 2), Fraction(-1))
@example(Fraction(0), Fraction(0), Fraction(-1))
@example(Fraction(1), Fraction(1), Fraction(-1))
def test_gap_certificate_on_planted_roots(r1, r2, lead):
    q = _integers((lead * r1 * r2, -lead * (r1 + r2), lead))
    assert _planted_verdict(*q) == _by_root_count(q)


@given(_PLANTED, st.fractions(min_value=-5, max_value=5, max_denominator=60),
       _LEAD)
@example(Fraction(0), Fraction(-1, 4), Fraction(-1))
@example(Fraction(1), Fraction(-1, 4), Fraction(-1))
@example(Fraction(0), Fraction(1, 4), Fraction(-1))
@example(Fraction(1), Fraction(1, 4), Fraction(-1))
def test_gap_certificate_on_planted_vertices(vertex, lift, lead):
    # lead*((u - vertex)**2 + lift): its vertex is planted, at 0 and 1
    # among others, with two, one or no real roots.
    q = _integers((lead * (vertex * vertex + lift), -2 * lead * vertex,
                   lead))
    assert _planted_verdict(*q) == _by_root_count(q)


# -- candidate first-eigenvalue window ------------------------------------

def test_candidate_window_su2_is_flat():
    w = candidate_lambda1_window(_fib("su", 2))
    assert w["mu1"] == 1
    assert w["beta1"] == 1
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        assert w["candidate_at"](t) == 1


def test_candidate_window_g2_sandwich():
    w = candidate_lambda1_window(_fib("g2", 2))
    assert w["mu1"] == Fraction(1, 2)
    assert w["beta1"] == Fraction(7, 6)
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        value = w["candidate_at"](t)
        assert w["mu1"] <= value <= w["beta1"]
    # The window is pinched at both ends: the constant line wins for
    # small t, the flag minimum at t = 1.
    assert w["candidate_at"](Fraction(1, 4)) == Fraction(7, 6)
    assert w["candidate_at"](Fraction(1)) == Fraction(1, 2)


def test_candidate_window_sp_sandwich():
    w = candidate_lambda1_window(_fib("sp", 3))
    for t in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        value = w["candidate_at"](t)
        assert w["mu1"] <= value <= w["beta1"]
