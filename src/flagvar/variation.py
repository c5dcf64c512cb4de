"""Spectral algebra of the canonical variation g_t.

Squeezing the fibers by t**2 turns each eigenvalue pair (mu, phi) of
the total space and fiber into the curve lambda(t) = mu + (1/t**2 - 1)
phi.  Constant curves are exactly the base eigenvalues.  This module
also normalizes the scalar curvature by m - 1 and certifies, by exact
root counting, the strict gap between that normalization and the first
candidate non-constant curve on the whole interval (0, 1].
"""

from dataclasses import dataclass
from fractions import Fraction

from .curvature import ScalPoly
from .exact import count_roots_open, deflate_zero_roots, poly_eval
from .spectra import base_spectrum, flag_minimum


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


# First flag eigenvalue and first base eigenvalue per family; both are
# rank dependent for two of the families.

def _mu1(fib):
    return flag_minimum(fib.family.root_family).value


def _beta1(fib):
    n = fib.family.n
    return {
        "su": Fraction(1),
        "so-odd": Fraction(n, 2 * n - 1),
        "sp": Fraction(1),
        "so-even": Fraction(1),
        "g2": Fraction(7, 6),
    }[fib.family.kind]


def lambda1_bounds(fib):
    """Catalogued sandwich for the first eigenvalue of the variation.

    Returns lower and upper bounds, and the exact value when the two
    collapse.  The sp lower bound is the catalogued statement, which is
    smaller than the Casimir flag minimum n/(n+1); see the spectra
    module.
    """
    n = fib.family.n
    kind = fib.family.kind
    if kind == "su":
        return {"lower": Fraction(1), "upper": Fraction(1),
                "exact": Fraction(1)}
    if kind == "so-odd":
        v = Fraction(n, 2 * n - 1)
        return {"lower": v, "upper": v, "exact": v}
    if kind == "sp":
        return {"lower": Fraction(4 * n - 1, 4 * (n + 1)),
                "upper": Fraction(1), "exact": None}
    if kind == "so-even":
        return {"lower": Fraction(1), "upper": Fraction(1),
                "exact": Fraction(1)}
    return {"lower": Fraction(1, 2), "upper": Fraction(7, 6), "exact": None}


def normalized_scal(fib, poly):
    """Divide scal(t) by m - 1, exactly, keeping the same numerator."""
    if fib.m_total < 3:
        raise ValueError("normalization needs dimension at least 3")
    return poly.scaled_denominator(fib.m_total - 1)


def gap_certificate(fib, poly, phi1=None, mu1=None):
    """Certify scal(t)/(m-1) < mu1 + (1/t**2 - 1)*phi1 on all of (0, 1].

    Clearing denominators in u = t**2 reduces the claim to a quadratic
    staying negative on (0, 1]; that is decided exactly by a Sturm count
    on the open interval plus sign checks at the endpoints.  Returns a
    report dict with the verdict and the polynomial used.
    """
    phi1 = Fraction(phi1) if phi1 is not None else fib.phi1
    mu1 = Fraction(mu1) if mu1 is not None else _mu1(fib)
    scale = poly.d * (fib.m_total - 1)
    coeffs = [poly.a - scale * phi1,
              poly.c - scale * (mu1 - phi1),
              poly.e]
    reduced, _ = deflate_zero_roots(coeffs)
    at_one = poly_eval(coeffs, Fraction(1))
    holds = at_one < 0
    roots_inside = 0
    if holds and reduced:
        if poly_eval(reduced, Fraction(1)) == 0:
            holds = False
        else:
            roots_inside = count_roots_open(reduced, Fraction(0), Fraction(1))
            holds = roots_inside == 0
    return {
        "family": fib.family.kind,
        "n": fib.family.n,
        "mu1": mu1,
        "phi1": phi1,
        "polynomial": coeffs,
        "value_at_one": at_one,
        "roots_in_unit_interval": roots_inside,
        "holds": holds,
    }


def candidate_lambda1_window(fib, cutoff=Fraction(6)):
    """Data for the sandwich property mu1 <= lambda1(t) <= beta1.

    Builds the candidate first eigenvalue at rational t as the minimum
    of the constant curves and the curves mu_k + (1/t**2 - 1)*phi_j
    with j >= 1; combination curves alone are never trusted as actual
    eigenvalues, only this bounded minimum is used.
    """
    from .spectra import fiber_spectrum, flag_spectrum

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
        "mu1": _mu1(fib),
        "beta1": _beta1(fib),
        "candidate_at": candidate_at,
    }
