"""Spectral algebra of the canonical variation g_t.

Squeezing the fibers by t**2 turns each eigenvalue pair (mu, phi) of
the total space and fiber into the curve lambda(t) = mu + (1/t**2 - 1)
phi.  Constant curves are exactly the base eigenvalues.  Comparing
scal(t)/(m - 1) with such a curve is, in u = t**2, the sign of one
concave quadratic (``gap_quadratic``): it gives the degeneracy instants
and bifurcation flags, and here the gap certificate, which decides in
closed form that scal(t)/(m - 1) stays strictly below the first
candidate non-constant curve on all of (0, 1].  The module also lays
out the curves on a t-grid for the figure.
"""

from .exact import common_denominator
from .spectra import (_first_entries, base_spectrum_first, fiber_spectrum,
                      flag_minimum, flag_spectrum)


def normalized_scal(fib):
    """Divide scal(t) by m - 1, exactly, keeping the same numerator."""
    if fib.m_total < 3:
        raise ValueError("normalization needs dimension at least 3")
    return fib.scal.scaled_denominator(fib.m_total - 1)


def gap_quadratic(fib, mu, phi):
    """Coefficients (c0, c1, c2) of c0 + c1*u + c2*u**2 in u = t**2.

    It is d*(m-1)*u*(scal(t)/(m-1) - mu - (1/u - 1)*phi), so its sign
    at any u > 0 says which side of the curve mu + (1/t**2 - 1)*phi
    the normalized scalar curvature lies on; at phi = 0 its root is
    where scal(t)/(m-1) meets the constant mu.  It is concave, since
    ``fib.scal`` certifies E < 0.
    """
    poly = fib.scal
    scale = poly.d * (fib.m_total - 1)
    return (poly.a - scale * phi, poly.c - scale * (mu - phi), poly.e)


def _roots_in_unit_interval(c0, c1, c2):
    """Number of distinct roots in (0, 1) of c0 + c1*u + c2*u**2, c2 < 0.

    The quadratic is positive exactly strictly between its roots, which
    straddle the vertex v.  So the discriminant, the signs at 0 and 1
    and the side of v on which 0 and 1 lie place each root.
    """
    disc = c1 * c1 - 4 * c2 * c0
    vertex = -c1 / (2 * c2)
    if disc < 0:
        return 0
    if disc == 0:
        return int(0 < vertex < 1)
    at_one = c0 + c1 + c2
    # The lower root is above 0 when 0 lies left of both roots, and
    # below 1 when 1 lies between them or right of both.
    low = c0 < 0 < vertex and (at_one > 0 or vertex < 1)
    # The upper root is above 0 when 0 lies between the roots or left
    # of both, and below 1 when 1 lies right of both.
    high = (c0 > 0 or vertex > 0) and at_one < 0 and vertex < 1
    return low + high


def gap_certificate(fib):
    """Certify scal(t)/(m-1) < mu1 + (1/t**2 - 1)*phi1 on all of (0, 1].

    mu1 is the flag minimum and phi1 the fibration's, so a phi1 given to
    ``build_fibration`` is the one tested.  The claim is
    ``gap_quadratic`` staying negative on (0, 1]: negative at 1 with no
    root in (0, 1), counted in closed form.  Returns a report dict with
    the verdict and the quadratic used.
    """
    phi1 = fib.phi1
    mu1 = flag_minimum(fib.family.root_family).value
    coeffs = list(gap_quadratic(fib, mu1, phi1))
    at_one = sum(coeffs)
    roots_inside = _roots_in_unit_interval(*coeffs) if at_one < 0 else 0
    return {
        "family": fib.family.kind,
        "n": fib.family.n,
        "mu1": mu1,
        "phi1": phi1,
        "polynomial": coeffs,
        "value_at_one": at_one,
        "roots_in_unit_interval": roots_inside,
        "holds": at_one < 0 and roots_inside == 0,
    }


def figure_series(fib, t_min, t_max):
    """Grid columns for the plot on 121 points of [t_min, t_max]: t,
    scal/(m-1), the first six constants and the curves
    mu_k + (1/t**2 - 1)*phi_j for 1 <= j <= k <= 6.

    Everything runs on integers.  With t = tn/td on the grid,
    mu_k = M_k/D and phi_j = F_j/D over one common denominator D, each
    curve is (M_k*tn**2 + F_j*(td**2 - tn**2))/(D*tn**2), and
    scal/(m-1) is likewise one ratio of integers.  So every float is a
    single correctly rounded int/int division of the exact value.
    """
    steps = 120
    norm = normalized_scal(fib)
    (a, c, e, d), _ = common_denominator((norm.a, norm.c, norm.e, norm.d))
    constants = [float(x.value) for x in base_spectrum_first(fib.family, 6)]
    mus = [x.value for x in _first_entries(
        lambda cut: flag_spectrum(fib.family.root_family, cut), 6)]
    phis = [x.value for x in _first_entries(
        lambda cut: fiber_spectrum(fib, cut), 6)]
    nums, den = common_denominator(mus + phis)
    ms, fs = nums[:6], nums[6:]
    (lo, hi), t_den = common_denominator((t_min, t_max))
    names = ["t", "scal_over_m_minus_1"]
    names += ["const_{}".format(k) for k in range(1, 7)]
    pairs = [(k, j) for k in range(1, 7) for j in range(1, k + 1)]
    names += ["lam_{}_{}".format(k, j) for k, j in pairs]
    td = t_den * steps
    rows = []
    for i in range(steps + 1):
        tn = lo * steps + (hi - lo) * i
        un, ud = tn * tn, td * td  # u = t**2 = un/ud
        row = [tn / td, (a * ud * ud + c * un * ud + e * un * un)
               / (d * un * ud)]
        row += constants
        row += [(ms[k - 1] * un + fs[j - 1] * (ud - un)) / (den * un)
                for k, j in pairs]
        rows.append(row)
    return names, rows
