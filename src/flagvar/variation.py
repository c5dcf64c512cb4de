"""Spectral algebra of the canonical variation g_t.

Squeezing the fibers by t**2 turns each eigenvalue pair (mu, phi) of
the total space and fiber into the curve lambda(t) = mu + (1/t**2 - 1)
phi.  Constant curves are exactly the base eigenvalues.  This module
also normalizes the scalar curvature by m - 1 and certifies, by exact
root counting, the strict gap between that normalization and the first
candidate non-constant curve on the whole interval (0, 1], and lays
out the curves on a t-grid for the figure.
"""

from fractions import Fraction

from .exact import count_roots_open, deflate_zero_roots, poly_eval
from .spectra import (_first_entries, base_spectrum_first, fiber_spectrum,
                      flag_minimum, flag_spectrum)


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
    mu1 = (Fraction(mu1) if mu1 is not None
           else flag_minimum(fib.family.root_family).value)
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


def figure_series(fib, poly, t_min, t_max):
    """Grid columns for the plot on 121 points of [t_min, t_max]: t,
    scal/(m-1), the first six constants and the curves
    mu_k + (1/t**2 - 1)*phi_j for 1 <= j <= k <= 6."""
    steps = 120
    norm = normalized_scal(fib, poly)
    constants = [e.value for e in base_spectrum_first(fib.family, 6)]
    mus = [e.value for e in _first_entries(
        lambda c: flag_spectrum(fib.family.root_family, c), 6)]
    phis = [e.value for e in _first_entries(
        lambda c: fiber_spectrum(fib, c), 6)]
    names = ["t", "scal_over_m_minus_1"]
    names += ["const_{}".format(k) for k in range(1, 7)]
    pairs = [(k, j) for k in range(1, 7) for j in range(1, k + 1)]
    names += ["lam_{}_{}".format(k, j) for k, j in pairs]
    rows = []
    for i in range(steps + 1):
        t = t_min + (t_max - t_min) * i / steps
        stretch = 1 / (t * t) - 1
        row = [float(t), float(norm.value_at_t(t))]
        row += [float(c) for c in constants]
        row += [float(mus[k - 1] + stretch * phis[j - 1]) for k, j in pairs]
        rows.append(row)
    return names, rows
