"""Scalar curvature of the canonical variation, assembled from root triples.

``scal_wz`` assembles the curvature by brute force from root triples:
each unordered triple {alpha, beta, alpha+beta} of positive roots feeds
the summation with a symbol value of twice the squared structure
constant of the summand pair, weighted by how many of the three roots
are vertical.  The assembled coefficients are the ones used downstream;
the catalogued closed forms, where they disagree with the assembly, and
the su triple census the audit checks are in ``catalog``.

Everything is represented in u = t**2, never sampled in floats.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from operator import add, mul, sub


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


class TripleRecord(namedtuple("TripleRecord", "alpha beta gamma value klass")):
    """An unordered root triple with its symbol value and vertical class.

    klass is 'vvv' when all three roots are vertical, 'vhh' when exactly
    one summand is vertical (the sum then being horizontal), and
    'hvh-transport' when the two summands are horizontal and bracket
    into a vertical sum.
    """

    __slots__ = ()


def triples(fib):
    """All triples {alpha, beta, gamma = alpha + beta} with their class.

    Each value is twice the squared structure constant of the summand
    pair, 2 N^2(alpha, beta) = q (p + 1) <alpha, alpha>, with (p, q) the
    alpha-string through beta: beta - p*alpha, ..., beta + q*alpha are
    roots (Humphreys, *Introduction to Lie Algebras and Representation
    Theory*, §25).  The string is walked down from beta on the integer
    roots, and q = p - 2(beta.alpha)/(alpha.alpha) (§8.4), so a triple
    costs one Fraction product.  Only squared structure
    constants are ever computed; signs would require committing to a
    Chevalley convention and nothing here needs them.
    """
    rs = fib.root_system
    roots = rs.roots
    vertical = set(fib.vertical_roots)
    records = []
    for alpha, beta in combinations(rs.positive_roots, 2):
        gamma = tuple(map(add, alpha, beta))
        if gamma not in roots:  # a sum of positive roots is never negative
            continue
        p, down, norm = 0, beta, sum(x * x for x in alpha)
        while (down := tuple(map(sub, down, alpha))) in roots:
            p += 1
        q = p - 2 * sum(map(mul, alpha, beta)) // norm
        value = rs.scale * (q * (p + 1) * norm)
        n_vertical = sum(1 for r in (alpha, beta, gamma) if r in vertical)
        if n_vertical == 3:
            klass = "vvv"
        elif n_vertical == 1 and gamma in vertical:
            klass = "hvh-transport"
        elif n_vertical == 1:
            klass = "vhh"
        else:  # the grading rule is at fault, not the input
            raise AssertionError(
                "unexpected vertical pattern in triple {} {} {}".format(
                    alpha, beta, gamma))
        records.append(TripleRecord(alpha, beta, gamma, value, klass))
    return records


def scal_wz(fib):
    """Brute-force scalar curvature of the canonical variation.

    The curvature is (1/2) sum d_l/t_l - (1/4) sum [k;ij] t_k/(t_i t_j)
    over ordered module triples, with every vertical module scaled by
    t**2 and every horizontal one kept at 1.  An unordered triple meets
    the ordered sum with multiplicity 6; splitting those orderings by
    where the vertical roots sit gives, per unit of symbol value,
    6/t**2 for a vvv triple and 4/t**2 + 2*t**2 for a one-vertical
    triple.
    """
    sum_vvv = Fraction(0)
    sum_mixed = Fraction(0)
    for rec in triples(fib):
        if rec.klass == "vvv":
            sum_vvv += rec.value
        else:
            sum_mixed += rec.value
    n_vertical = len(fib.vertical_roots)
    n_horizontal = len(fib.horizontal_roots)
    a = n_vertical - Fraction(3, 2) * sum_vvv - sum_mixed
    c = Fraction(n_horizontal)
    e = -sum_mixed / 2
    return ScalPoly(a=a, c=c, e=e, d=Fraction(1))

