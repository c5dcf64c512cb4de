"""Spectral algebra of the canonical variation g_t.

Squeezing the fibers by t**2 turns each eigenvalue pair (mu, phi) of
the total space and fiber into the curve lambda(t) = mu + (1/t**2 - 1)
phi.  Constant curves are exactly the base eigenvalues.  Comparing
scal(t)/(m - 1) with such a curve is, in u = t**2, the sign of one
concave integer quadratic read off the fibration's form ``fib.gap``,
which the degeneracy instants read at (beta, 0).  Here, read at
(mu1, phi1), it gives the gap certificate, which decides by integer
signs that scal(t)/(m - 1) stays strictly below the first candidate
non-constant curve on all of (0, 1].  The module also lays out the
curves on a t-grid for the figure.
"""

from fractions import Fraction

from .exact import common_denominator
from .spectra import (_first_entries, base_spectrum_first, fiber_spectrum,
                      flag_minimum, flag_spectrum)


def gap_certificate(fib):
    """Certify scal(t)/(m-1) < mu1 + (1/t**2 - 1)*phi1 on all of (0, 1].

    mu1 is the flag minimum and phi1 the fibration's, so a phi1 given to
    ``build_fibration`` is the one tested.  With mu1 = M/k and
    phi1 = F/k, ``fib.gap`` read at (mu1, phi1) is the integer concave
    quadratic q = (c0*k + slope*F, c1*k + slope*(M - F), c2*k): over
    den*k it is d*(m-1)*u*(scal(t)/(m-1) - mu1 - (1/u - 1)*phi1), in
    u = t**2.  The claim is q < 0 on (0, 1].  It needs q(1) < 0; then,
    with the vertex -c1/(2*c2) at or left of 0, also c0 <= 0; at or
    right of 1, nothing more; in between, a negative maximum,
    c1**2 < 4*c0*c2.  Returns a report dict with the verdict, q and
    q(1), both over the ``denominator`` den*k.
    """
    phi1 = fib.phi1
    mu1 = flag_minimum(fib.family.root_family).value
    c0, c1, slope, c2, den = fib.gap
    (m, f), k = common_denominator((mu1, phi1))
    c0, c1, c2 = c0 * k + slope * f, c1 * k + slope * (m - f), c2 * k
    at_one = c0 + c1 + c2
    below = (c0 <= 0 if c1 <= 0
             else c1 >= -2 * c2 or c1 * c1 < 4 * c0 * c2)
    return {
        "family": fib.family.kind,
        "n": fib.family.n,
        "mu1": mu1,
        "phi1": phi1,
        "polynomial": [c0, c1, c2],
        "denominator": den * k,
        "value_at_one": at_one,
        "holds": at_one < 0 and below,
    }


def figure_series(fib, t_min, t_max):
    """Grid columns for the plot on 121 points of [t_min, t_max]: t,
    scal/(m-1), the first six constants and the curves
    mu_k + (1/t**2 - 1)*phi_j for 1 <= j <= k <= 6.

    Everything is exact until one division.  With t = tn/td on the
    grid, mu_k = M_k/D and phi_j = F_j/D over one common denominator D,
    each curve is (M_k*tn**2 + F_j*(td**2 - tn**2))/(D*tn**2), and
    scal/(m-1) is ``fib.scal_over_m_minus_1`` at u = tn**2/td**2.  So
    every float is a single correctly rounded int/int or Fraction
    division of the exact value.
    """
    steps = 120
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
        row = [tn / td, float(fib.scal_over_m_minus_1(Fraction(un, ud)))]
        row += constants
        row += [(ms[k - 1] * un + fs[j - 1] * (ud - un)) / (den * un)
                for k, j in pairs]
        rows.append(row)
    return names, rows
