"""Scalar curvature of the canonical variation, from Casimir constants.

``scal_wz`` sums the symbol values of the root triples {alpha, beta,
alpha+beta} without visiting one.  For a normal metric, the symbols
[i;j,k] of a module m_i of dimension d_i and isotropy Casimir constant
c_i sum over ordered (j, k) to d_i(1 - 2c_i) (Wang and Ziller,
*Invent. Math.* 84, 1986); on G/T the root summand m_alpha has d = 2
and c = <alpha, alpha>.  Inside each simple factor H_s of the fiber
the same holds with the adjoint Casimir c_s of H_s in place of 1.  One
trace identity, ``rootsys.adjoint_casimir``, gives every c_s and turns
both sums into counts of roots: only the fiber's roots are visited.  The
catalogued closed forms, where they disagree with this derivation, and
the su triple census the audit checks are in ``catalog``.

Everything is represented in u = t**2, never sampled in floats.
"""

from collections import namedtuple
from fractions import Fraction
from operator import mul

from .rootsys import adjoint_casimir


class ScalPoly(namedtuple("ScalPoly", "a c e d")):
    """scal(t) = (a + c*t**2 + e*t**4) / (d*t**2), exact coefficients."""

    __slots__ = ()

    def __new__(cls, a, c, e, d):
        if d == 0:
            raise ValueError("zero denominator")
        return super().__new__(cls, a, c, e, d)

    def normalized(self):
        """Coefficient triple (a/d, c/d, e/d), the rational-function key."""
        return (self.a / self.d, self.c / self.d, self.e / self.d)

    def same_function(self, other):
        return self.normalized() == other.normalized()


def _fiber_factors(fib):
    """The vertical roots, one list per simple factor of the fiber.

    The factors are the classes of ``fib.fiber_simple_roots`` under a
    nonzero dot product.  A vertical root lies in one factor and is
    orthogonal to every other, so it joins the first factor it is not
    orthogonal to, and the last when it is orthogonal to the rest.
    """
    groups = []
    for alpha in fib.fiber_simple_roots:
        linked = [g for g in groups if any(sum(map(mul, alpha, b)) for b in g)]
        groups = [g for g in groups if g not in linked]
        groups.append([alpha] + [b for g in linked for b in g])
    factors = [[] for _ in groups]
    for root in fib.vertical_roots:
        i = next((i for i, g in enumerate(groups[:-1])
                  if any(sum(map(mul, root, b)) for b in g)), -1)
        factors[i].append(root)
    return factors


def fiber_casimirs(fib):
    """(positive roots, simple roots, adjoint Casimir c_s in dot units)
    of each simple factor H_s of the fiber: its simple roots are the r_s
    of ``fib.fiber_simple_roots`` among its roots."""
    simple = set(fib.fiber_simple_roots)
    for roots in _fiber_factors(fib):
        basis = tuple(simple.intersection(roots))
        yield roots, basis, adjoint_casimir(roots, len(basis))


def scal_wz(fib):
    """Scalar curvature of the canonical variation.

    The curvature is (1/2) sum d_l/t_l - (1/4) sum [k;ij] t_k/(t_i t_j)
    over ordered module triples, with every vertical module scaled by
    t**2 and every horizontal one kept at 1.  An unordered triple meets
    the ordered sum with multiplicity 6; splitting those orderings by
    where the vertical roots sit gives, per unit of symbol value,
    6/t**2 for an all-vertical triple and 4/t**2 + 2*t**2 for a triple
    with one vertical root.  Over all triples the symbol values sum to
    (1/3) sum over alpha > 0 of (1 - 2<alpha, alpha>), which is (N -
    n)/3 for G's N = m/2 positive roots and rank n since 2 sum |alpha|^2
    = c*rank (``adjoint_casimir``), and over the all-vertical ones to
    (1/3) sum over s of c_s (N_s - r_s), each factor's (``fib.casimirs``);
    the mixed triples take the difference.
    """
    sum_vvv = fib.root_system.scale * sum(
        c * (len(roots) - len(basis)) for roots, basis, c in fib.casimirs) / 3
    total = Fraction(fib.m_total // 2 - len(fib.root_system.simple_roots), 3)
    return ScalPoly(a=len(fib.vertical_roots) - total - sum_vvv / 2,
                    c=Fraction(len(fib.horizontal_roots)),
                    e=(sum_vvv - total) / 2, d=Fraction(1))
