"""Root systems A_n, B_n, C_n, D_n and G2 on an integer lattice.

Every root has integer ambient coordinates: A_n lives in the sum-zero
hyperplane of Z^(n+1), B/C/D in Z^n, and G2 in the sum-zero plane of
Z^3 with simple roots (0, 1, -1) (short) and (1, -2, 1) (long), the
embedding ``sympy.liealgebras`` uses.  The inner product is the dual
Cartan-Killing form: one rational scale times the integer dot product,
with the scale that puts the Casimir <theta, theta + 2*delta> of the
adjoint representation at 1, theta the highest root.  Equivalently
<theta, theta> = 1/h_vee, h_vee the dual Coxeter number, which is
never tabulated.  That choice makes every eigenvalue formula downstream
come out with its familiar denominator.

Only squared structure constants are ever computed; signs would require
committing to a Chevalley convention and nothing here needs them.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
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


class CKForm(namedtuple("CKForm", "scale")):
    """Dual Cartan-Killing form: ``scale`` times the Euclidean dot product."""

    __slots__ = ()


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_neg(a):
    return tuple(-x for x in a)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class RootSystem(namedtuple("RootSystem",
                            "family positive_roots simple_roots ck")):
    """Positive and simple roots of ``family`` and its CK form.  No
    ``__slots__``: the cached ``roots`` lives in the instance dict."""

    @cached_property
    def roots(self):
        """Every root, positive and negative, built once."""
        return frozenset(self.positive_roots) | {
            _vec_neg(r) for r in self.positive_roots}


def build_root_system(family):
    """Construct positive roots, simple roots and the normalized form."""
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
    ck = CKForm(scale=Fraction(1, max(_dot(r, _vec_add(r, two_delta))
                                      for r in positive)))
    return RootSystem(family, tuple(positive), tuple(simple), ck)


def ck_inner(ck, u, v):
    """Evaluate the normalized form on two coordinate vectors.

    Roots are integer tuples; weights may carry Fraction coordinates.
    """
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return ck.scale * _dot(u, v)


def root_string(rs, alpha, beta):
    """The alpha-string through beta: largest p, q with beta - p*alpha
    and beta + q*alpha both roots of ``rs``.

    Undefined (and rejected) for beta = +-alpha.
    """
    if beta == alpha or beta == _vec_neg(alpha):
        raise ValueError("root string through +-alpha is undefined")
    roots = rs.roots
    if alpha not in roots or beta not in roots:
        raise ValueError("arguments must be roots")
    p = 0
    current = _vec_sub(beta, alpha)
    while current in roots:
        p += 1
        current = _vec_sub(current, alpha)
    q = 0
    current = _vec_add(beta, alpha)
    while current in roots:
        q += 1
        current = _vec_add(current, alpha)
    return p, q


def structure_constant_sq(rs, alpha, beta):
    """Squared structure constant N^2 for the pair (alpha, beta).

    Zero when alpha + beta is not a root; otherwise q*(p+1)*<a,a>/2 with
    (p, q) the alpha-string through beta.
    """
    if _vec_add(alpha, beta) not in rs.roots:
        return Fraction(0)
    p, q = root_string(rs, alpha, beta)
    return Fraction(q * (p + 1), 2) * ck_inner(rs.ck, alpha, alpha)
