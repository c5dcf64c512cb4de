"""Degeneracy instants, bifurcation flags, Morse index, multiplicity.

A degeneracy instant is a parameter t where scal(t)/(m-1) meets a base
eigenvalue beta.  In u = t**2 that is the integer quadratic
a + b*u + e*u**2 = 0 of ``fib.gap_at(beta)``, with e < 0 < a
(A > 0 > E, certified where ``fib.scal`` is derived), which has
exactly one positive root, an exact quadratic surd whose residual is
checked to be literally zero.  An instant holds no float: its t is made
from u where it is printed.  The catalogued sequences the instants are
compared with are in ``catalog``.

Every verdict is one rational comparison.  s(u) = scal(t)/(m-1)
strictly falls as u rises, so the instant of beta lies below a rational
x > 0 exactly when beta > s(x): the flag and the decay witness read s
at one point, and the Morse index and the solution count bisect s(t**2)
among the base eigenvalues (t is degenerate where it equals one).  No
surd is ordered.  The rigidity threshold is the first instant of
``instant_base``, that of the first base eigenvalue beta1; it lies in
(0, 1), with the solution rigid above it, exactly when beta1 > s(1).
The flag's mu1 is one flag walk at cutoff 1, which G's highest root, a
class-one weight of Casimir 1, keeps from being empty.
"""

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction

from .spectra import (base_spectrum, flag_minimum, spherical_multiple_above,
                      weyl_dim)
from .surd import QuadraticSurd


class DegeneracyInstant(namedtuple(
        "DegeneracyInstant", "u beta mult is_bifurcation")):
    """One solved instant: exact u = t**2 and its pedigree.  A printer
    makes the float t as ``u.sqrt_to_float()``."""

    __slots__ = ()


def solve_instant(fib, beta, mult=1):
    """Unique positive root of the instant quadratic at beta.

    A negative u**2 and a positive constant coefficient force the two
    roots to straddle zero, so positivity picks one: u = (b +
    sqrt(b*b - 4*e*a))/(-2*e) over the integers (a, b, e) of
    ``fib.gap_at(beta)``, whose denominator only scales the quadratic,
    and the surd takes that to its normal form.  The residual of u =
    (p + q*sqrt(d))/r in a + b*u + e*u**2, times r**2, is a*r*r + b*p*r
    + e*(p*p + q*q*d) plus q*(b*r + 2*e*p) times sqrt(d), irrational
    when q != 0, so both integers are checked to be 0.  Of the two
    conjugate roots the larger, the positive one, has q > 0; a rational
    root is positive when p > 0.  The bifurcation flag is the strict
    inequality beta < mu1 + (1/u - 1)*phi1 with the fibration's phi1,
    so an overridden fiber eigenvalue propagates.  With u > 0, phi1 > 0
    and over = beta + phi1 - mu1 it reads over <= 0 or u < phi1/over,
    that is beta > s(phi1/over): one rational comparison.
    """
    beta = Fraction(beta)
    a, b, e, _ = fib.gap_at(beta)
    u = QuadraticSurd(b, 1, -2 * e, b * b - 4 * e * a)

    p, q, r, d = u.p, u.q, u.r, u.d
    if (a * r * r + b * p * r + e * (p * p + q * q * d)
            or q * (b * r + 2 * e * p)):
        raise AssertionError("nonzero residual for a solved instant")
    if (q if d else p) <= 0:
        raise AssertionError("solved instant is not positive")

    over = beta + fib.phi1 - flag_minimum(fib.family.root_family).value
    is_bif = over <= 0 or beta > fib.scal_over_m_minus_1(fib.phi1 / over)
    return DegeneracyInstant(u, beta, mult, is_bif)


def instant_base(fib, t_min):
    """The base entries up to scal(t_min)/(m-1), by increasing value:
    those whose instants lie at or above t_min."""
    t_min = Fraction(t_min)
    if not 0 < t_min < 1:
        raise ValueError("t_min must lie in (0, 1)")
    cutoff = fib.scal_over_m_minus_1(t_min * t_min)
    return tuple(base_spectrum(fib.family, cutoff))


def degeneracy_instants(fib, base):
    """One instant per entry of ``base``, with ``base`` from
    ``instant_base`` down to some t_min: all instants with t >= t_min.

    The result is sorted by decreasing t: beta strictly rises along it,
    which is re-verified pair by pair, and s(u) strictly falls.
    """
    instants = [solve_instant(fib, entry.value, entry.mult)
                for entry in base]
    for earlier, later in zip(instants, instants[1:]):
        if not later.beta > earlier.beta:
            raise AssertionError("instants failed to decrease strictly")
    return instants


def instant_below(fib, eps):
    """A degeneracy instant with t < eps, witnessing decay to zero.

    Takes the smallest multiple of the first spherical generator whose
    base eigenvalue exceeds s(eps**2), which puts its instant below eps,
    and solves that instant; strict monotonicity puts every later
    instant lower still.  The witness multiplicity counts the generator
    power alone, a lower bound when other spherical weights share the
    eigenvalue.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    target = fib.scal_over_m_minus_1(eps * eps)
    value, coeffs = spherical_multiple_above(fib.family, target)
    if not value > target:
        raise AssertionError("witness instant failed to drop below eps")
    return solve_instant(fib, value, weyl_dim(fib.family.root_family, coeffs))


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
    s = fib.scal_over_m_minus_1(t * t)
    k = bisect_left(base, s, key=lambda entry: entry.value)
    return k, k < len(base) and base[k].value == s
