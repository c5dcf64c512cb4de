"""Tests for the brute-force curvature assembly and the catalogued
closed forms, including the cases where the two provably differ."""

from fractions import Fraction
from itertools import combinations

import pytest

from flagvar.catalog import scal_closed_form
from flagvar.curvature import ScalPoly, scal_wz, su_triple_census, triples
from flagvar.fibration import FibrationFamily, build_fibration
from oracles import structure_constant_sq

IDENTITY_HOLDS = [("su", n) for n in range(2, 7)] + [("so-odd", 2), ("g2", 2)]
IDENTITY_FAILS = [("so-odd", n) for n in (4, 5, 6)] + \
                 [("sp", n) for n in range(3, 7)] + \
                 [("so-even", n) for n in range(4, 7)]

GROUP_DIM = {
    "su": lambda n: (n + 1) ** 2 - 1,
    "so-odd": lambda n: n * (2 * n + 1),
    "sp": lambda n: n * (2 * n + 1),
    "so-even": lambda n: n * (2 * n - 1),
    "g2": lambda n: 14,
}

RANK = {"g2": lambda n: 2}

# Ranks past the acceptance grid, where the integer weight kernel makes
# build_fibration and scal_wz cheap enough for tier 1.
HIGH_RANK = [(kind, n) for kind in ("su", "so-odd", "sp", "so-even")
             for n in (9, 10)]


def _fib(kind, n):
    return build_fibration(FibrationFamily(kind, n))


def test_scalpoly_basics():
    p = ScalPoly(Fraction(2), Fraction(12), Fraction(-2), Fraction(3))
    q = ScalPoly(Fraction(4), Fraction(24), Fraction(-4), Fraction(6))
    assert p.same_function(q)
    assert p.normalized() == (Fraction(2, 3), Fraction(4), Fraction(-2, 3))
    assert p.value_at_t(1) == 4
    assert p.value_at_u(Fraction(1, 4)) == (2 + 3 - Fraction(1, 8)) / Fraction(3, 4)
    with pytest.raises(ValueError):
        p.value_at_u(0)
    with pytest.raises(ValueError):
        ScalPoly(Fraction(1), Fraction(1), Fraction(1), Fraction(0))


def test_triples_su3_census():
    recs = triples(_fib("su", 2))
    assert len(recs) == 1
    assert recs[0].klass == "vhh"
    assert recs[0].value == Fraction(1, 3)


def test_triples_sp3_census():
    # Hand count for Sp(3)/T^3: one fiber-internal triple of value 1/8,
    # three mixed of value 1/8, six mixed of value 1/4.
    recs = triples(_fib("sp", 3))
    by_klass = {}
    for rec in recs:
        by_klass.setdefault(rec.klass, []).append(rec.value)
    assert sorted(by_klass) == ["vhh", "vvv"]
    assert by_klass["vvv"] == [Fraction(1, 8)]
    assert sorted(by_klass["vhh"]) == [Fraction(1, 8)] * 3 + [Fraction(1, 4)] * 6


def test_triples_so_even4_census():
    recs = triples(_fib("so-even", 4))
    vvv = [r for r in recs if r.klass == "vvv"]
    mixed = [r for r in recs if r.klass != "vvv"]
    assert len(vvv) == 4 and all(r.value == Fraction(1, 6) for r in vvv)
    assert len(mixed) == 12 and all(r.value == Fraction(1, 6) for r in mixed)


def test_transport_triples_only_where_expected():
    # Two horizontal summands bracketing into a vertical root occur for
    # the so-odd and g2 partitions and nowhere else.
    for kind, n in [("su", 3), ("sp", 3), ("so-even", 4)]:
        assert all(r.klass != "hvh-transport" for r in triples(_fib(kind, n)))
    assert any(r.klass == "hvh-transport" for r in triples(_fib("so-odd", 2)))
    assert any(r.klass == "hvh-transport" for r in triples(_fib("g2", 2)))


ORACLE_GRID = ([("su", n) for n in range(2, 9)]
               + [("so-odd", n) for n in (2, 4, 5, 6, 7, 8)]
               + [("sp", n) for n in range(3, 9)]
               + [("so-even", n) for n in range(4, 9)] + [("g2", 2)])


@pytest.mark.parametrize("kind,n", ORACLE_GRID)
def test_triples_match_the_structure_constant_oracle(kind, n):
    # The integer string walk against the oracle's root strings, and the
    # triple set against a scan of every positive-root pair.
    fib = _fib(kind, n)
    rs = fib.root_system
    recs = triples(fib)
    for rec in recs:
        assert rec.value == 2 * structure_constant_sq(rs, rec.alpha, rec.beta)
    scan = {(a, b) for a, b in combinations(rs.positive_roots, 2)
            if structure_constant_sq(rs, a, b) != 0}
    assert {(rec.alpha, rec.beta) for rec in recs} == scan
    assert all(rec.gamma == tuple(x + y for x, y in zip(rec.alpha, rec.beta))
               for rec in recs)


@pytest.mark.parametrize("n", range(2, 7))
def test_su_triple_values_all_equal(n):
    for rec in triples(_fib("su", n)):
        assert rec.value == Fraction(1, n + 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_su_census_counts(n):
    fib = _fib("su", n)
    n1, n2, n3 = su_triple_census(fib)
    assert n1 == n**3 - 3 * n**2 + 2 * n
    assert n2 == 2 * n * (n - 1)
    assert n3 == n * (n - 1)


def test_su_census_rejects_other_families():
    with pytest.raises(ValueError):
        su_triple_census(_fib("g2", 2))


@pytest.mark.parametrize("kind,n", IDENTITY_HOLDS)
def test_identity_where_it_holds(kind, n):
    fib = _fib(kind, n)
    assert scal_wz(fib).same_function(scal_closed_form(fib.family))


@pytest.mark.parametrize("kind,n", IDENTITY_FAILS)
def test_identity_where_it_fails(kind, n):
    fib = _fib(kind, n)
    assert not scal_wz(fib).same_function(scal_closed_form(fib.family))


@pytest.mark.parametrize("kind,n", IDENTITY_HOLDS + IDENTITY_FAILS + HIGH_RANK)
def test_wz_quadratic_coefficient_is_horizontal_count(kind, n):
    # Any fiber-scaling variation has t**2 coefficient |H|: each of the
    # |H| horizontal summands contributes d/2 = 1 and nothing else can.
    fib = _fib(kind, n)
    wz = scal_wz(fib).normalized()
    assert wz[1] == len(fib.horizontal_roots)


@pytest.mark.parametrize("kind,n", [("sp", n) for n in range(3, 7)]
                         + [("so-even", n) for n in range(4, 7)])
def test_catalogued_quadratic_coefficient_is_doubled(kind, n):
    fib = _fib(kind, n)
    closed = scal_closed_form(fib.family).normalized()
    assert closed[1] == 2 * len(fib.horizontal_roots)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_so_odd_difference_is_a_quarter_of_the_fiber_term(n):
    # The catalogued numerator differs from the assembled one by exactly
    # (3/2) times a quarter of the fiber-internal bracket sum: of the
    # four fiber triples on each index triple {i < j < k}, one went
    # missing.  The t**2 and t**4 coefficients agree.
    fib = _fib("so-odd", n)
    wz = scal_wz(fib).normalized()
    closed = scal_closed_form(fib.family).normalized()
    sum_vvv = sum(r.value for r in triples(fib) if r.klass == "vvv")
    assert closed[0] - wz[0] == Fraction(3, 8) * sum_vvv
    assert closed[1] == wz[1]
    assert closed[2] == wz[2]


@pytest.mark.parametrize("kind,n", IDENTITY_HOLDS + IDENTITY_FAILS + HIGH_RANK)
def test_normal_metric_value_oracle(kind, n):
    # At t = 1 the assembled curvature must equal (dim G + rank)/4, the
    # classical value for the normal metric on a full flag.
    fib = _fib(kind, n)
    rank = 2 if kind == "g2" else n
    expected = Fraction(GROUP_DIM[kind](n) + rank, 4)
    assert scal_wz(fib).value_at_t(1) == expected
    assert fib.m_total == GROUP_DIM[kind](n) - rank


def test_closed_form_spot_values():
    # Transcription anchors for the catalogued coefficients at t = 1.
    assert scal_closed_form(FibrationFamily("su", 2)).value_at_t(1) == Fraction(5, 2)
    assert scal_closed_form(FibrationFamily("so-odd", 2)).value_at_t(1) == 3
    assert scal_closed_form(FibrationFamily("sp", 3)).value_at_t(1) == Fraction(213, 16)
    assert scal_closed_form(FibrationFamily("so-even", 4)).value_at_t(1) == 15
    assert scal_closed_form(FibrationFamily("g2", 2)).value_at_t(1) == 4


def test_wz_g2_coefficients():
    wz = scal_wz(_fib("g2", 2))
    assert wz.normalized() == (Fraction(2, 3), Fraction(4), Fraction(-2, 3))


# -- O'Neill: the t**-2 coefficient is the fiber's scalar curvature --------

def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def fiber_factors(fib):
    """The simple factors of the fiber as (simple roots, positive roots):
    the fiber simple roots grouped by non-orthogonality, and each
    vertical root with the factor it is not orthogonal to."""
    groups = []
    for alpha in fib.fiber_simple_roots:
        linked = [g for g in groups if any(_dot(alpha, b) for b in g)]
        groups = [g for g in groups if g not in linked]
        groups.append([alpha] + [b for g in linked for b in g])
    return [(g, [r for r in fib.vertical_roots if any(_dot(r, b) for b in g)])
            for g in groups]


@pytest.mark.parametrize("kind,n", [("su", n) for n in (2, 3, 4, 5, 8)]
                         + [("so-odd", n) for n in (2, 4, 5, 8)]
                         + [("sp", n) for n in (3, 4, 8)]
                         + [("so-even", n) for n in (4, 5, 8)]
                         + [("g2", 2)])
def test_fiber_term_is_the_oneill_fiber_curvature(kind, n):
    # scal(g_t) = scal_B + t**-2 scal_F - t**2 |A|**2 (Besse 9.70), and
    # the fiber's normal metric under G's form has scal_F = sum over its
    # simple factors of Cas_G(theta_j) (|positive roots_j| + rank_j) / 2,
    # theta_j the factor's highest root, which has the largest Casimir
    # <beta, beta + 2 delta_j> among the factor's roots.
    fib = _fib(kind, n)
    scale = fib.root_system.scale
    scal_f = 0
    for simple, positive in fiber_factors(fib):
        two_delta = [sum(r[k] for r in positive)
                     for k in range(len(positive[0]))]
        casimir = scale * max(_dot(b, [x + d for x, d in zip(b, two_delta)])
                              for b in positive)
        scal_f += casimir * Fraction(len(positive) + len(simple), 2)
    assert scal_wz(fib).normalized()[0] == scal_f
    assert len(fiber_factors(fib)) == (2 if (kind, n) in (("so-odd", 2),
                                                          ("g2", 2)) else 1)
