"""Degeneracy instants, bifurcation flags, Morse index, multiplicity.

A degeneracy instant is a parameter t where scal(t)/(m-1) meets a base
eigenvalue beta.  Clearing denominators in u = t**2 leaves
``gap_quadratic`` at (beta, 0): E*u**2 + (C - D*(m-1)*beta)*u + A = 0
with E < 0 and A > 0, which has exactly one positive root; it is
carried as an exact quadratic surd and its residual in the defining
quadratic is checked to be literally zero.
Instants are always computed this way; the catalogued sequences they
are compared with are in ``catalog``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exact import common_denominator
from .spectra import (ambient_weight, base_spectrum, base_spectrum_first,
                      casimir_of_weight, flag_minimum, kramer_basis, weyl_dim)
from .surd import QuadraticSurd
from .variation import gap_quadratic, normalized_scal


@dataclass(frozen=True)
class DegeneracyInstant:
    """One solved instant: exact u = t**2, float t, and its pedigree."""

    u: QuadraticSurd
    t: float
    t_error: float
    beta: Fraction
    mult: int
    is_bifurcation: bool


def solve_instant(fib, poly, beta, mult=1):
    """Unique positive root of ``gap_quadratic`` at (beta, 0).

    A negative u**2 and a positive constant coefficient force the two
    roots to straddle zero, so positivity picks one; the residual is
    re-checked to be exactly the rational zero.  The bifurcation flag is
    the strict inequality beta < mu1 + (1/u - 1)*phi1, which at the
    instant is the (mu1, phi1) quadratic being negative at u, evaluated
    exactly in u's field with the fibration's phi1, so an overridden
    fiber eigenvalue propagates.  Both quadratics depend on (fib, poly)
    alone, so ``_quadratics`` builds their integer forms once per pair.
    """
    (c0, c1, slope, c2, den), (f0, f1, f2) = _quadratics(fib, poly)
    beta = Fraction(beta)
    bn, bd = beta.numerator, beta.denominator
    # gap_quadratic at (beta, 0) is (a, b, e)/k.
    a, b, e, k = c0 * bd, c1 * bd + slope * bn, c2 * bd, den * bd
    if e >= 0 or a <= 0:
        raise ValueError("expected E < 0 and A > 0 in the quadratic")
    disc = b * b - 4 * e * a
    # u = (b + sqrt(disc))/(-2e).  In lowest terms disc/k**2 is
    # (disc/g)/(k*k/g) with g = gcd(disc, k*k); over the integer radicand
    # (disc/g)*(k*k/g), u is (b*k + g*sqrt(radicand))/(-2*e*k), printed
    # with the common factor of the three coefficients taken out.
    g = gcd(disc, k * k)
    h = gcd(b * k, -2 * e * k, g)
    u = QuadraticSurd(b * k // h, g // h, -2 * e * k // h,
                      (disc // g) * (k * k // g))

    if (u * (u * e + b) + a).sign() != 0:
        raise AssertionError("nonzero residual for a solved instant")
    if u.sign() <= 0:
        raise AssertionError("solved instant is not positive")

    is_bif = (u * (u * f2 + f1) + f0).sign() < 0

    t, t_err = u.sqrt_to_float(bits=96)
    if t_err > 1e-12:
        raise AssertionError("presentation error exceeded the certified bound")
    return DegeneracyInstant(u=u, t=t, t_error=t_err, beta=beta,
                             mult=mult, is_bifurcation=is_bif)


@lru_cache(maxsize=16)
def _quadratics(fib, poly):
    """The quadratics every instant reads, over the integers, built once.

    ``gap_quadratic`` is affine in mu, so at (beta, 0) it is
    (c0, c1 + slope*beta, c2)/den, read off at beta = 0 and 1.  The
    (mu1, phi1) quadratic that decides the bifurcation flag is kept up
    to a positive factor, which leaves its sign alone.
    """
    at0 = gap_quadratic(fib, poly, 0, 0)
    at1 = gap_quadratic(fib, poly, 1, 0)
    (c0, c1, c2, c1_at1), den = common_denominator(at0 + (at1[1],))
    mu1 = flag_minimum(fib.family.root_family).value
    flag = common_denominator(gap_quadratic(fib, poly, mu1, fib.phi1))[0]
    return (c0, c1, c1_at1 - c1, c2, den), flag


def rigidity_threshold(fib, poly):
    """The instant for the first base eigenvalue; rigid on (b, 1]."""
    first = base_spectrum_first(fib.family, 1)[0]
    inst = solve_instant(fib, poly, first.value, first.mult)
    if not inst.u < 1:
        raise ValueError("no degeneracy inside (0, 1)")
    return inst


def degeneracy_instants(fib, poly, t_min):
    """All instants with t >= t_min, one per distinct base eigenvalue.

    scal(t)/(m-1) is strictly decreasing on (0, 1], so the eigenvalues
    to solve are exactly the base values up to its value at t_min.  The
    result is sorted by decreasing t (increasing beta) and its strict
    monotonicity is re-verified on the exact surds.
    """
    t_min = Fraction(t_min)
    if not 0 < t_min < 1:
        raise ValueError("t_min must lie in (0, 1)")
    cutoff = normalized_scal(fib, poly).value_at_t(t_min)
    instants = [solve_instant(fib, poly, entry.value, entry.mult)
                for entry in base_spectrum(fib.family, cutoff)]
    for earlier, later in zip(instants, instants[1:]):
        if not later.u < earlier.u:
            raise AssertionError("instants failed to decrease strictly")
    return instants


def instant_below(fib, poly, eps):
    """A degeneracy instant with t < eps, witnessing decay to zero.

    Takes the smallest multiple of the first spherical generator whose
    base eigenvalue exceeds scal/(m-1) at t = eps and solves that
    instant; strict monotonicity puts every later instant lower still.
    The witness multiplicity counts the generator power alone, a lower
    bound when other spherical weights share the eigenvalue.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    target = normalized_scal(fib, poly).value_at_t(eps)
    family = fib.family.root_family
    gen = kramer_basis(fib.family)[0]
    k = 1
    while True:
        coeffs = tuple(k * c for c in gen)
        value = casimir_of_weight(family, ambient_weight(family, coeffs))
        if value > target:
            break
        k += 1
    inst = solve_instant(fib, poly, value, weyl_dim(family, coeffs))
    if not inst.u < eps * eps:
        raise AssertionError("witness instant failed to drop below eps")
    return inst


def _instants_above(instants, t):
    """(k, on_instant): instants[:k] lie strictly above t, and whether
    instants[k] lies exactly at t.

    The instants are strictly decreasing in u = t**2, so one bisection
    comparing each exact u with the rational t**2 finds k.
    """
    t = Fraction(t)
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    u_t = t * t
    lo, hi = 0, len(instants)
    while lo < hi:
        mid = (lo + hi) // 2
        s = instants[mid].u._cmp(u_t)
        if s == 0:
            return mid, True
        if s > 0:
            lo = mid + 1
        else:
            hi = mid
    return lo, False


def morse_index(fib, poly, instants, t):
    """Total base multiplicity of the instants lying strictly above t.

    Landing on an instant is rejected because the index jumps there.
    """
    k, on_instant = _instants_above(instants, t)
    if on_instant:
        raise ValueError("degenerate point, index undefined")
    return sum(inst.mult for inst in instants[:k])


def multiplicity_lower_bound(fib, instants, t):
    """Certified count of unit-volume constant-curvature metrics.

    Returns 3 when t sits strictly between two consecutive computed
    instants below the rigidity threshold, else the conservative 1.
    """
    k, on_instant = _instants_above(instants, t)
    return 3 if 0 < k < len(instants) and not on_instant else 1
