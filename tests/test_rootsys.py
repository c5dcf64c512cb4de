"""Tests for the root systems and the normalized inner product."""

from fractions import Fraction
from itertools import combinations

import pytest

from flagvar.fibration import build_fibration
from flagvar.rootsys import (FamilyTag, adjoint_casimir, build_root_system,
                             ck_inner)
from oracles import all_roots, root_string, structure_constant_sq
from test_spectra import _fibrations

COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G2": lambda n: 6,
}

# The standard table of dual Coxeter numbers; the library derives the
# CK scale instead, and these are its oracle.
DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "G2": lambda n: 4,
}

SMALL = [("A", n) for n in range(1, 7)] + \
        [("B", n) for n in range(2, 7)] + \
        [("C", n) for n in range(3, 7)] + \
        [("D", n) for n in range(4, 7)] + [("G2", 2)]


@pytest.mark.parametrize("kind,rank", SMALL)
def test_positive_root_counts(kind, rank):
    rs = build_root_system(FamilyTag(kind, rank))
    assert len(rs.positive_roots) == COUNTS[kind](rank)
    assert len(rs.simple_roots) == rank
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


def long_root(rs):
    """Some root of maximal squared length (the normalization witness)."""
    return max(rs.positive_roots, key=lambda r: ck_inner(rs.scale, r, r))


@pytest.mark.parametrize("kind,rank", SMALL)
def test_highest_root_normalization(kind, rank):
    rs = build_root_system(FamilyTag(kind, rank))
    theta = long_root(rs)
    assert ck_inner(rs.scale, theta, theta) == Fraction(
        1, DUAL_COXETER[kind](rank))


def test_ck_scale_matches_the_dual_coxeter_table():
    # The derived scale against 1/(h_vee * max |alpha|^2) for every kind.
    for kind, rank in SMALL + [(k, 8) for k in ("A", "B", "C", "D")]:
        rs = build_root_system(FamilyTag(kind, rank))
        longest = max(sum(x * x for x in r) for r in rs.positive_roots)
        assert rs.scale == Fraction(1, DUAL_COXETER[kind](rank) * longest)


def test_rank_constraints_enforced():
    with pytest.raises(ValueError):
        FamilyTag("A", 0)
    with pytest.raises(ValueError):
        FamilyTag("B", 1)
    with pytest.raises(ValueError):
        FamilyTag("C", 2)
    with pytest.raises(ValueError):
        FamilyTag("D", 3)
    with pytest.raises(ValueError):
        FamilyTag("G2", 3)
    with pytest.raises(ValueError):
        FamilyTag("E", 6)


def test_a_family_root_lengths():
    for n in (2, 3, 5):
        rs = build_root_system(FamilyTag("A", n))
        for root in rs.positive_roots:
            assert ck_inner(rs.scale, root, root) == Fraction(1, n + 1)
            assert sum(root) == 0


def test_c3_long_root_length():
    rs = build_root_system(FamilyTag("C", 3))
    two_e1 = (Fraction(2), Fraction(0), Fraction(0))
    assert two_e1 in rs.positive_roots
    assert ck_inner(rs.scale, two_e1, two_e1) == Fraction(1, 4)


def test_g2_gram_entries():
    rs = build_root_system(FamilyTag("G2", 2))
    a1 = (1, -2, 1)  # long
    a2 = (0, 1, -1)  # short
    assert ck_inner(rs.scale, a1, a1) == Fraction(1, 4)
    assert ck_inner(rs.scale, a2, a2) == Fraction(1, 12)
    assert ck_inner(rs.scale, a1, a2) == Fraction(-1, 8)
    # Highest root 2*a1 + 3*a2 is long.
    theta = (2, -1, -1)
    assert ck_inner(rs.scale, theta, theta) == Fraction(1, 4)


def test_ck_inner_zero_and_mismatch():
    rs = build_root_system(FamilyTag("B", 2))
    zero = (Fraction(0), Fraction(0))
    for root in rs.positive_roots:
        assert ck_inner(rs.scale, root, zero) == 0
    with pytest.raises(ValueError):
        ck_inner(rs.scale, (Fraction(1),), (Fraction(1), Fraction(0)))


def test_root_string_examples():
    rs = build_root_system(FamilyTag("A", 2))
    a = rs.simple_roots[0]
    b = rs.simple_roots[1]
    assert root_string(rs, a, b) == (0, 1)

    g2 = build_root_system(FamilyTag("G2", 2))
    a2, a1 = g2.simple_roots  # short, long
    assert root_string(g2, a2, a1) == (0, 3)
    assert root_string(g2, a2, (1, -1, 0)) == (1, 2)

    b2 = build_root_system(FamilyTag("B", 2))
    e2 = (Fraction(0), Fraction(1))
    e1_minus_e2 = (Fraction(1), Fraction(-1))
    assert root_string(b2, e2, e1_minus_e2) == (0, 2)


def test_root_string_rejects_parallel():
    rs = build_root_system(FamilyTag("A", 2))
    a = rs.simple_roots[0]
    with pytest.raises(ValueError):
        root_string(rs, a, a)
    neg = tuple(-x for x in a)
    with pytest.raises(ValueError):
        root_string(rs, a, neg)
    with pytest.raises(ValueError):
        root_string(rs, a, (Fraction(5),) * 3)


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 3), ("B", 2),
                                       ("B", 3), ("C", 3), ("D", 4),
                                       ("G2", 2)])
def test_string_identity_exhaustive(kind, rank):
    # p - q = 2<b,a>/<a,a> for every root pair, the standard identity.
    rs = build_root_system(FamilyTag(kind, rank))
    roots = sorted(all_roots(rs))
    for a in rs.positive_roots:
        aa = ck_inner(rs.scale, a, a)
        for b in roots:
            if b == a or b == tuple(-x for x in a):
                continue
            p, q = root_string(rs, a, b)
            assert p - q == 2 * ck_inner(rs.scale, b, a) / aa


def test_structure_constant_su_value():
    for n in (2, 3, 4):
        rs = build_root_system(FamilyTag("A", n))
        a = rs.simple_roots[0]
        b = rs.simple_roots[1]
        assert structure_constant_sq(rs, a, b) == Fraction(1, 2 * (n + 1))


def test_structure_constant_zero_when_sum_not_root():
    rs = build_root_system(FamilyTag("A", 2))
    a = rs.simple_roots[0]
    top = tuple(x + y for x, y in zip(*rs.simple_roots))
    assert structure_constant_sq(rs, a, top) == 0


def test_structure_constant_g2_example():
    rs = build_root_system(FamilyTag("G2", 2))
    a2 = (0, 1, -1)  # short
    b = (1, -1, 0)
    # String (p, q) = (1, 2) through a1 + a2, length <a2,a2> = 1/12.
    assert structure_constant_sq(rs, a2, b) == Fraction(2 * 2, 2) * Fraction(1, 12)


@pytest.mark.parametrize("kind,rank", [("A", 3), ("B", 2), ("C", 3),
                                       ("D", 4), ("G2", 2)])
def test_structure_constant_symmetric(kind, rank):
    rs = build_root_system(FamilyTag(kind, rank))
    for a, b in combinations(rs.positive_roots, 2):
        assert structure_constant_sq(rs, a, b) == structure_constant_sq(rs, b, a)


def _positive_definite(matrix):
    """Sylvester test for a symmetric matrix: elimination without row
    exchanges, whose pivots are ratios of consecutive leading principal
    minors, must meet only positive pivots."""
    work = [[Fraction(v) for v in row] for row in matrix]
    for col in range(len(work)):
        pivot = work[col][col]
        if pivot <= 0:
            return False
        for r in range(col + 1, len(work)):
            f = work[r][col] / pivot
            work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return True


@pytest.mark.parametrize("kind,rank", SMALL)
def test_simple_gram_positive_definite(kind, rank):
    rs = build_root_system(FamilyTag(kind, rank))
    gram = [[ck_inner(rs.scale, a, b) for b in rs.simple_roots]
            for a in rs.simple_roots]
    assert _positive_definite(gram)
    assert not _positive_definite([[1, 2], [2, 1]])  # negative control


# -- oracle: sympy's Lie-algebra root systems -------------------------------

def _weyl_closure(simple):
    """Every root, as the orbit of the simple roots under the simple
    reflections s_a(b) = b - (2<b,a>/<a,a>) a, in integers."""
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    roots, frontier = set(simple), list(simple)
    while frontier:
        b = frontier.pop()
        for a in simple:
            k = 2 * dot(b, a) // dot(a, a)
            image = tuple(x - k * y for x, y in zip(b, a))
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    return roots


@pytest.mark.parametrize("kind,rank", SMALL)
def test_roots_and_gram_match_sympy(kind, rank):
    root_system = pytest.importorskip("sympy.liealgebras.root_system")
    oracle = root_system.RootSystem(kind if kind == "G2" else kind + str(rank))
    rs = build_root_system(FamilyTag(kind, rank))
    simple = [tuple(oracle.simple_roots()[i + 1]) for i in range(rank)]
    assert list(rs.simple_roots) == simple
    gram = [[sum(x * y for x, y in zip(a, b)) for b in simple] for a in simple]
    assert [[ck_inner(rs.scale, a, b) / rs.scale for b in rs.simple_roots]
            for a in rs.simple_roots] == gram
    # sympy types each Cartan matrix by hand: a_ij = 2<a_i,a_j>/<a_j,a_j>.
    # (Its A1 matrix raises IndexError; [2] has nothing to compare.)
    if rank > 1:
        cartan = oracle.cartan_matrix()
        assert all(cartan[i, j] == 2 * gram[i][j] // gram[j][j]
                   for i in range(rank) for j in range(rank))
    listed = {tuple(r) for r in oracle.all_roots().values()}
    assert all_roots(rs) == _weyl_closure(simple)
    if kind == "G2":
        # sympy 1.14 lists (1, 0, 1) where the root 2a + b is (1, 0, -1).
        assert all_roots(rs) - listed <= {(1, 0, -1), (-1, 0, 1)}
    else:
        assert all_roots(rs) == listed


# -- oracle: the grown table against the Weyl closure ------------------------

# Every valid rank up to 12.
GROWN = ([("A", n) for n in range(1, 13)] + [("B", n) for n in range(2, 13)]
         + [("C", n) for n in range(3, 13)] + [("D", n) for n in range(4, 13)]
         + [("G2", 2)])


def heights_never_decrease(coordinates):
    heights = [sum(k) for k in coordinates]
    return heights == sorted(heights)


@pytest.mark.parametrize("kind,rank", GROWN)
def test_grown_roots_are_the_positive_half_of_the_weyl_closure(kind, rank):
    rs = build_root_system(FamilyTag(kind, rank))
    closure = _weyl_closure(rs.simple_roots)
    assert len(closure) == 2 * len(rs.positive_roots)
    assert all_roots(rs) == closure
    assert min(map(min, rs.coordinates)) >= 0
    assert heights_never_decrease(rs.coordinates)
    # The last root is the highest root, the unique maximum of
    # <r, r + 2*delta>.
    two_delta = [sum(col) for col in zip(*rs.positive_roots)]
    *rest, top = [sum(x * (x + d) for x, d in zip(r, two_delta))
                  for r in rs.positive_roots]
    assert all(value < top for value in rest)


@pytest.mark.parametrize("kind,rank", GROWN)
def test_scale_is_the_trace_identity(kind, rank):
    # The oracle is a root search: theta, the highest root, has the
    # largest <r, r + 2*delta>.  A rank off by one is the planted
    # control.
    rs = build_root_system(FamilyTag(kind, rank))
    two_delta = [sum(col) for col in zip(*rs.positive_roots)]
    search = max(sum(x * (x + d) for x, d in zip(r, two_delta))
                 for r in rs.positive_roots)
    assert adjoint_casimir(rs.positive_roots, rank) == search == 1 / rs.scale
    assert adjoint_casimir(rs.positive_roots, rank + 1) != search


@pytest.mark.parametrize("kind,rank", [("B", 3), ("G2", 2)])
def test_a_reversed_table_fails_the_height_check(kind, rank):
    rs = build_root_system(FamilyTag(kind, rank))
    assert not heights_never_decrease(rs.coordinates[::-1])


@pytest.mark.parametrize("family", _fibrations(12),
                         ids=lambda f: "{}-{}".format(*f))
def test_the_fiber_adds_the_least_k_n_2_root(family):
    # Borel and de Siebenthal: the fiber's one simple root beyond G's
    # first n-1 is the k_n = 2 root of least height, unique where it
    # exists (so-odd and g2).
    fib = build_fibration(family)
    rs = fib.root_system
    doubled = {r: sum(k) for r, k in zip(rs.positive_roots, rs.coordinates)
               if k[-1] == 2}
    low = min(doubled.values(), default=0)
    least = {r for r, height in doubled.items() if height == low}
    assert len(least) <= 1
    assert set(fib.fiber_simple_roots) - set(rs.simple_roots) == least
