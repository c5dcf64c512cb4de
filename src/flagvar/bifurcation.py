"""Degeneracy instants, bifurcation flags, Morse index, multiplicity.

A degeneracy instant is a parameter t where scal(t)/(m-1) meets a base
eigenvalue beta.  Clearing denominators in u = t**2 leaves
``gap_quadratic`` at (beta, 0): E*u**2 + (C - D*(m-1)*beta)*u + A = 0
with E < 0 and A > 0 (certified where ``fib.scal`` is derived), which
has exactly one positive root; it is carried as an exact quadratic surd
and its residual in the defining quadratic is checked to be literally
zero.
Instants are always computed this way; the catalogued sequences they
are compared with are in ``catalog``.

The Morse index and the solution count need no instant.  scal(t)/(m-1)
is strictly decreasing, so an instant lies above t exactly when its
beta lies below scal(t)/(m-1): both are one rational bisection of that
value among the base eigenvalues, and t is a degenerate point exactly
when it equals one of them.
"""

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exact import common_denominator
from .rootsys import build_root_system
from .spectra import (_form_value, _fundamental_coefficients,
                      _root_coordinates, _simple_gram, base_spectrum,
                      base_spectrum_first, flag_minimum, kramer_basis,
                      weyl_dim)
from .surd import QuadraticSurd
from .variation import gap_quadratic, normalized_scal


class DegeneracyInstant(namedtuple(
        "DegeneracyInstant", "u t t_error beta mult is_bifurcation")):
    """One solved instant: exact u = t**2, float t, and its pedigree."""

    __slots__ = ()


def solve_instant(fib, beta, mult=1):
    """Unique positive root of ``gap_quadratic`` at (beta, 0).

    A negative u**2 and a positive constant coefficient force the two
    roots to straddle zero, so positivity picks one; the residual is
    re-checked to be exactly the rational zero.  The bifurcation flag is
    the strict inequality beta < mu1 + (1/u - 1)*phi1, which at the
    instant is the (mu1, phi1) quadratic being negative at u, evaluated
    exactly in u's field with the fibration's phi1, so an overridden
    fiber eigenvalue propagates.  Both quadratics depend on fib alone,
    so ``_quadratics`` builds their integer forms once per fibration.
    """
    (c0, c1, slope, c2, den), (f0, f1, f2) = _quadratics(fib)
    beta = Fraction(beta)
    bn, bd = beta.numerator, beta.denominator
    # gap_quadratic at (beta, 0) is (a, b, e)/k.
    a, b, e, k = c0 * bd, c1 * bd + slope * bn, c2 * bd, den * bd
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
def _quadratics(fib):
    """The quadratics every instant reads, over the integers, built once.

    ``gap_quadratic`` is affine in mu, so at (beta, 0) it is
    (c0, c1 + slope*beta, c2)/den, read off at beta = 0 and 1.  The
    (mu1, phi1) quadratic that decides the bifurcation flag is kept up
    to a positive factor, which leaves its sign alone.
    """
    at0 = gap_quadratic(fib, 0, 0)
    at1 = gap_quadratic(fib, 1, 0)
    (c0, c1, c2, c1_at1), den = common_denominator(at0 + (at1[1],))
    mu1 = flag_minimum(fib.family.root_family).value
    flag = common_denominator(gap_quadratic(fib, mu1, fib.phi1))[0]
    return (c0, c1, c1_at1 - c1, c2, den), flag


def rigidity_threshold(fib):
    """The instant for the first base eigenvalue; rigid on (b, 1]."""
    first = base_spectrum_first(fib.family, 1)[0]
    inst = solve_instant(fib, first.value, first.mult)
    if not inst.u < 1:
        raise AssertionError("no degeneracy inside (0, 1)")
    return inst


@lru_cache(maxsize=16)
def instant_base(fib, t_min):
    """The base entries up to scal(t_min)/(m-1), by increasing value:
    those whose instants lie at or above t_min.  Cached, since verify
    reads it for both the instants and the Morse checks."""
    t_min = Fraction(t_min)
    if not 0 < t_min < 1:
        raise ValueError("t_min must lie in (0, 1)")
    cutoff = normalized_scal(fib).value_at_t(t_min)
    return tuple(base_spectrum(fib.family, cutoff))


def degeneracy_instants(fib, t_min):
    """All instants with t >= t_min, one per entry of ``instant_base``.

    The result is sorted by decreasing t (increasing beta) and its
    strict monotonicity is re-verified on the exact surds.
    """
    instants = [solve_instant(fib, entry.value, entry.mult)
                for entry in instant_base(fib, t_min)]
    for earlier, later in zip(instants, instants[1:]):
        if not later.u < earlier.u:
            raise AssertionError("instants failed to decrease strictly")
    return instants


def instant_below(fib, eps):
    """A degeneracy instant with t < eps, witnessing decay to zero.

    Takes the smallest multiple of the first spherical generator whose
    base eigenvalue exceeds scal/(m-1) at t = eps and solves that
    instant; strict monotonicity puts every later instant lower still.
    The eigenvalue of k*gen is the class-one form at k*p, p the
    simple-root coefficients of gen, which must be integers.  The
    witness multiplicity counts the generator power alone, a lower
    bound when other spherical weights share the eigenvalue.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    target = normalized_scal(fib).value_at_t(eps)
    family = fib.family.root_family
    gram = _simple_gram(family)
    scale = build_root_system(family).ck.scale
    gen = kramer_basis(fib.family)[0]
    p = _root_coordinates(gen, *_fundamental_coefficients(gram))
    if p is None:
        raise AssertionError("a spherical generator is off the root lattice")
    k = 1
    while (value := scale * _form_value(gram, [k * x for x in p])) <= target:
        k += 1
    inst = solve_instant(fib, value,
                         weyl_dim(family, tuple(k * c for c in gen)))
    if not inst.u < eps * eps:
        raise AssertionError("witness instant failed to drop below eps")
    return inst


def morse_index(fib, base, t):
    """Total multiplicity of the ``base`` entries strictly below
    scal(t)/(m-1), with ``base`` from ``instant_base`` down to some t_min
    (below t_min, a lower bound).  A degenerate point, where the index
    jumps, is rejected."""
    k, degenerate = _place(fib, base, t)
    if degenerate:
        raise ValueError("degenerate point, index undefined")
    return sum(entry.mult for entry in base[:k])


def multiplicity_lower_bound(fib, base, t):
    """Certified count of unit-volume constant-curvature metrics.

    Returns 3 when t sits strictly between two consecutive instants of
    ``base`` below the rigidity threshold, else the conservative 1.
    """
    k, degenerate = _place(fib, base, t)
    return 3 if 0 < k < len(base) and not degenerate else 1


def _place(fib, base, t):
    """(k, degenerate): base[:k] lie strictly below s = scal(t)/(m-1),
    and whether base[k] equals s.  One rational bisection finds k."""
    t = Fraction(t)
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    s = normalized_scal(fib).value_at_t(t)
    k = bisect_left(base, s, key=lambda entry: entry.value)
    return k, k < len(base) and base[k].value == s
