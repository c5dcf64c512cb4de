"""Root systems A_n, B_n, C_n, D_n and G2 on an integer lattice.

Every root has integer ambient coordinates: A_n lives in the sum-zero
hyperplane of Z^(n+1), B/C/D in Z^n, and G2 in the sum-zero plane of
Z^3 with simple roots (0, 1, -1) (short) and (1, -2, 1) (long), the
embedding ``sympy.liealgebras`` uses.  Only the simple roots are
written by hand.  The positive roots are grown from them by height,
each with its simple-root coordinates k (alpha = sum k_i alpha_i), the
one table that the fibration's grading and the Weyl factors read.  The
inner product is the dual Cartan-Killing form: one rational
``RootSystem.scale`` times the integer dot product, the scale that puts
the adjoint Casimir <theta, theta + 2*delta> at 1, theta the highest
root, so <theta, theta> = 1/h_vee, h_vee never tabulated.  Every
adjoint Casimir, G's and each fiber factor's, is read off one trace
identity, ``adjoint_casimir``.  Nothing at runtime reads bracket data:
only the tests' oracles walk root strings or search for theta.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import add, gt, mul, sub

# The five kinds, each with its smallest rank.
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "G2": 2}


class FamilyTag(namedtuple("FamilyTag", "kind rank")):
    """One of the five simple families at a given rank."""

    __slots__ = ()

    def __new__(cls, kind, rank):
        if kind not in _MIN_RANK:
            raise ValueError("unknown family kind {!r}".format(kind))
        if kind == "G2" and rank != 2:
            raise ValueError("G2 has fixed rank 2")
        if rank < _MIN_RANK[kind]:
            raise ValueError("{}_n needs rank >= {}, got {}".format(
                kind, _MIN_RANK[kind], rank))
        return super().__new__(cls, kind, rank)


class RootSystem(namedtuple("RootSystem",
                            "positive_roots simple_roots scale coordinates")):
    """Positive roots by height, simple roots, the CK scale (the form is
    ``scale`` times the integer dot product) and, in row i of
    ``coordinates``, the simple-root coordinates k of positive root i."""

    __slots__ = ()


@lru_cache(maxsize=None)
def gram_matrix(roots):
    """Integer Gram matrix of ``roots`` under the dot product."""
    return tuple(tuple(sum(map(mul, a, b)) for b in roots) for a in roots)


@lru_cache(maxsize=None)
def build_root_system(family):
    """Write the simple roots, grow the positive roots with their
    coordinates and derive the normalized form, once per family.

    Each root beta of one height carries its coordinates k, its Cartan
    pairings c_i = <beta, alpha_i^vee> and, per i, the number q_i of
    steps the alpha_i-string through beta goes down.  beta + alpha_i is
    a root exactly when q_i > c_i (Humphreys, *Introduction to Lie
    Algebras and Representation Theory*, 8.4); its pairings are beta's
    plus row i of the Cartan matrix 2<alpha_i, alpha_j>/<alpha_j,
    alpha_j>, and its q_i is beta's plus one.  Every root one height
    lower from which it grows sets one q_j, and q_j = 0 where none does:
    a simple root has q = 0.
    """
    kind, n = family.kind, family.rank
    if kind == "G2":  # a short, b long
        simple = [(0, 1, -1), (1, -2, 1)]
    else:
        dim = n + 1 if kind == "A" else n
        e = [tuple(int(i == k) for k in range(dim)) for i in range(dim)]
        simple = [tuple(map(sub, a, b)) for a, b in zip(e, e[1:])]
        if kind == "B":
            simple.append(e[n - 1])
        elif kind == "C":
            simple.append(tuple(map(add, e[n - 1], e[n - 1])))
        elif kind == "D":
            simple.append(tuple(map(add, e[n - 2], e[n - 1])))
    simple = tuple(simple)

    gram = gram_matrix(simple)
    cartan = [[2 * g // gram[j][j] for j, g in enumerate(row)]
              for row in gram]
    level = {tuple(int(i == j) for j in range(n)): (alpha, row, [0] * n)
             for i, (alpha, row) in enumerate(zip(simple, cartan))}
    positive, coordinates = [], []
    while level:
        grown = {}
        for k, (root, pairings, down) in level.items():
            positive.append(root)
            coordinates.append(k)
            for i in compress(range(n), map(gt, down, pairings)):
                up = k[:i] + (k[i] + 1,) + k[i + 1:]
                if up not in grown:
                    grown[up] = (tuple(map(add, root, simple[i])),
                                 list(map(add, pairings, cartan[i])),
                                 [0] * n)
                grown[up][2][i] = down[i] + 1
        level = grown

    scale = 1 / adjoint_casimir(positive, n)
    return RootSystem(tuple(positive), simple, scale, tuple(coordinates))


def adjoint_casimir(roots, rank):
    """The adjoint Casimir <theta, theta + 2*delta> of the simple system
    with positive ``roots``, in dot units: 2*sum |alpha|^2 over them,
    over the rank.  Under the Killing form, where it is 1, (lambda, mu)
    = sum over all roots of (alpha, lambda)(alpha, mu) (Humphreys,
    section 8), whose trace puts the sum of all |alpha|^2 at the rank."""
    return Fraction(2 * sum(sum(map(mul, r, r)) for r in roots), rank)


def ck_inner(scale, u, v):
    """Evaluate the form ``scale`` times the dot product on two vectors.

    Nothing in the package calls it; it stays because the perfbench
    tracer self-test looks it up by name here and in ``spectra``.
    """
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return scale * sum(map(mul, u, v))
