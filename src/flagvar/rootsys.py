"""Root systems A_n, B_n, C_n, D_n and G2 on an integer lattice.

Every root has integer ambient coordinates: A_n lives in the sum-zero
hyperplane of Z^(n+1), B/C/D in Z^n, and G2 in the sum-zero plane of
Z^3 with simple roots (0, 1, -1) (short) and (1, -2, 1) (long), the
embedding ``sympy.liealgebras`` uses.  The inner product is the dual
Cartan-Killing form: one rational ``RootSystem.scale`` times the
integer dot product, the scale that puts the Casimir
<theta, theta + 2*delta> of the adjoint representation at 1, theta the
highest root.  Equivalently <theta, theta> = 1/h_vee, h_vee the dual
Coxeter number, which is never tabulated.  That choice makes every
eigenvalue formula downstream come out with its familiar denominator.
Root strings are walked on the integer ``RootSystem.roots`` in
``curvature.triples``, the one reader of bracket data.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

KINDS = ("A", "B", "C", "D", "G2")

_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "G2": 2}


class FamilyTag(namedtuple("FamilyTag", "kind rank")):
    """One of the five simple families at a given rank."""

    __slots__ = ()

    def __new__(cls, kind, rank):
        if kind not in KINDS:
            raise ValueError("unknown family kind {!r}".format(kind))
        if kind == "G2" and rank != 2:
            raise ValueError("G2 has fixed rank 2")
        if rank < _MIN_RANK[kind]:
            raise ValueError("{}_n needs rank >= {}, got {}".format(
                kind, _MIN_RANK[kind], rank))
        return super().__new__(cls, kind, rank)


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class RootSystem(namedtuple("RootSystem",
                            "positive_roots simple_roots scale")):
    """Positive and simple roots and the CK scale: the form is ``scale``
    times the integer dot product.  No ``__slots__``: the cached
    ``roots`` lives in the instance dict."""

    @cached_property
    def roots(self):
        """Every root, positive and negative, built once."""
        return frozenset(self.positive_roots) | {
            tuple(-x for x in r) for r in self.positive_roots}


@lru_cache(maxsize=None)
def build_root_system(family):
    """Construct positive roots, simple roots and the normalized form,
    once per family."""
    kind, n = family.kind, family.rank

    dim = n + 1 if kind == "A" else n
    e = [tuple(int(i == k) for k in range(dim)) for i in range(dim)]
    if kind == "A":
        positive = [_vec_sub(e[i], e[j])
                    for i, j in combinations(range(dim), 2)]
        simple = [_vec_sub(e[i], e[i + 1]) for i in range(n)]
    elif kind in ("B", "C", "D"):
        positive = []
        for i, j in combinations(range(n), 2):
            positive.append(_vec_sub(e[i], e[j]))
            positive.append(_vec_add(e[i], e[j]))
        simple = [_vec_sub(e[i], e[i + 1]) for i in range(n - 1)]
        if kind == "B":
            positive.extend(e)
            simple.append(e[n - 1])
        elif kind == "C":
            positive.extend(_vec_add(v, v) for v in e)
            simple.append(_vec_add(e[n - 1], e[n - 1]))
        else:
            simple.append(_vec_add(e[n - 2], e[n - 1]))
    else:  # G2: a, b, a+b, 2a+b, 3a+b, 3a+2b with a short, b long
        positive = [(0, 1, -1), (1, -2, 1), (1, -1, 0), (1, 0, -1),
                    (1, 1, -2), (2, -1, -1)]
        simple = positive[:2]

    # The adjoint Casimir <theta, theta + 2*delta> is 1 under the Killing
    # form, and theta maximizes <alpha, alpha + 2*delta> over positive roots.
    two_delta = tuple(map(sum, zip(*positive)))
    scale = Fraction(1, max(_dot(r, _vec_add(r, two_delta))
                            for r in positive))
    return RootSystem(tuple(positive), tuple(simple), scale)


def ck_inner(scale, u, v):
    """Evaluate the form ``scale`` times the dot product on two vectors.

    Nothing in the package calls it; it stays because the perfbench
    tracer self-test looks it up by name here and in ``spectra``.
    """
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return scale * _dot(u, v)
