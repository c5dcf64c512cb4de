"""Tests for eigenvalue curves along the fiber-scaling family and the
exact gap certificate."""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from flagvar.catalog import _BETA1
from flagvar.curvature import scal_wz
from flagvar.fibration import FibrationFamily, build_fibration
from flagvar.spectra import (base_spectrum, fiber_spectrum, flag_minimum,
                             flag_spectrum)
from flagvar.variation import gap_certificate, normalized_scal

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
        "beta1": _BETA1[fib.family.kind](fib.family.n),
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
    assert all(e.origin == "base" for e in entries)


# -- normalized scalar curvature ------------------------------------------

def test_normalized_scal_spot_values():
    f = _fib("su", 2)
    assert normalized_scal(f, scal_wz(f)).value_at_t(Fraction(1)) == Fraction(1, 2)
    g = _fib("g2", 2)
    assert normalized_scal(g, scal_wz(g)).value_at_t(Fraction(1)) == Fraction(4, 11)
    s = _fib("so-odd", 2)
    assert normalized_scal(s, scal_wz(s)).value_at_t(Fraction(1)) == Fraction(3, 7)


def test_normalized_scal_divides_by_dimension_minus_one():
    f = _fib("sp", 3)
    poly = scal_wz(f)
    scaled = normalized_scal(f, poly)
    t = Fraction(2, 5)
    assert scaled.value_at_t(t) * (f.m_total - 1) == poly.value_at_t(t)


# -- the gap certificate ---------------------------------------------------

@pytest.mark.parametrize("kind,n", CRITERION_CASES)
def test_gap_certificate_holds_everywhere(kind, n):
    f = _fib(kind, n)
    report = gap_certificate(f, scal_wz(f))
    assert report["holds"]
    assert report["roots_in_unit_interval"] == 0
    assert report["value_at_one"] < 0


def test_gap_certificate_su2_report_fields():
    f = _fib("su", 2)
    report = gap_certificate(f, scal_wz(f))
    assert report["family"] == "su"
    assert report["n"] == 2
    assert report["mu1"] == 1
    # The first eigenvalue of SU(2)/T^1 under the form of SU(3).
    assert report["phi1"] == Fraction(2, 3)
    assert report["polynomial"] == [
        Fraction(-8, 3), Fraction(1, 3), Fraction(-1, 6)]
    assert report["value_at_one"] == Fraction(-5, 2)


def test_gap_certificate_negative_controls():
    # Shrinking phi1 or mu1 far enough must break the certificate: the
    # verdict is computed, not assumed.
    f = _fib("su", 2)
    poly = scal_wz(f)
    weak_phi = gap_certificate(f, poly, phi1=Fraction(1, 1000))
    assert not weak_phi["holds"]
    assert weak_phi["roots_in_unit_interval"] >= 1
    weak_mu = gap_certificate(f, poly, mu1=Fraction(0))
    assert not weak_mu["holds"]


def test_gap_certificate_honors_overrides():
    f = _fib("su", 2)
    poly = scal_wz(f)
    report = gap_certificate(f, poly, mu1=Fraction(100))
    assert report["mu1"] == 100
    assert report["holds"]


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
