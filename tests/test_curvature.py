"""Tests for scal(t) from Casimir sums, its structure-constant oracle,
and the catalogued closed forms, including the cases where the derived
and catalogued forms provably differ."""

from fractions import Fraction

import pytest

import oracles
from flagvar import curvature, fibration, rootsys
from flagvar.catalog import scal_closed_form, su_triple_census
from flagvar.curvature import ScalPoly, scal_wz
from flagvar.fibration import FibrationFamily, build_fibration
from flagvar.spectra import fiber_spectrum
from oracles import triple_scan, value_at_t, value_at_u
from test_spectra import _fibrations

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


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def test_scalpoly_basics():
    p = ScalPoly(Fraction(2), Fraction(12), Fraction(-2), Fraction(3))
    q = ScalPoly(Fraction(4), Fraction(24), Fraction(-4), Fraction(6))
    assert p.same_function(q)
    assert p.normalized() == (Fraction(2, 3), Fraction(4), Fraction(-2, 3))
    assert value_at_t(p, 1) == 4
    assert value_at_u(p, Fraction(1, 4)) == (2 + 3 - Fraction(1, 8)) / Fraction(3, 4)
    with pytest.raises(ValueError):
        value_at_u(p, 0)
    with pytest.raises(ValueError):
        ScalPoly(Fraction(1), Fraction(1), Fraction(1), Fraction(0))


def test_triples_su3_census():
    recs = triple_scan(_fib("su", 2))
    assert len(recs) == 1
    assert recs[0].klass == "vhh"
    assert recs[0].value == Fraction(1, 3)


def test_triples_sp3_census():
    # Hand count for Sp(3)/T^3: one fiber-internal triple of value 1/8,
    # three mixed of value 1/8, six mixed of value 1/4.
    recs = triple_scan(_fib("sp", 3))
    by_klass = {}
    for rec in recs:
        by_klass.setdefault(rec.klass, []).append(rec.value)
    assert sorted(by_klass) == ["vhh", "vvv"]
    assert by_klass["vvv"] == [Fraction(1, 8)]
    assert sorted(by_klass["vhh"]) == [Fraction(1, 8)] * 3 + [Fraction(1, 4)] * 6


def test_triples_so_even4_census():
    recs = triple_scan(_fib("so-even", 4))
    vvv = [r for r in recs if r.klass == "vvv"]
    mixed = [r for r in recs if r.klass != "vvv"]
    assert len(vvv) == 4 and all(r.value == Fraction(1, 6) for r in vvv)
    assert len(mixed) == 12 and all(r.value == Fraction(1, 6) for r in mixed)


def test_transport_triples_only_where_expected():
    # Two horizontal summands bracketing into a vertical root occur for
    # the so-odd and g2 partitions and nowhere else.
    for kind, n in [("su", 3), ("sp", 3), ("so-even", 4)]:
        assert all(r.klass != "hvh-transport"
                   for r in triple_scan(_fib(kind, n)))
    for kind, n in [("so-odd", 2), ("g2", 2)]:
        assert any(r.klass == "hvh-transport"
                   for r in triple_scan(_fib(kind, n)))


ORACLE_GRID = ([("su", n) for n in range(2, 9)]
               + [("so-odd", n) for n in (2, 4, 5, 6, 7, 8)]
               + [("sp", n) for n in range(3, 9)]
               + [("so-even", n) for n in range(4, 9)] + [("g2", 2)])

# Past the golden ranks, where the Casimir sums and the scan could part.
SCAN_PAST_GRID = [("su", 12), ("so-odd", 10), ("sp", 10), ("so-even", 10)]


def casimir_class_sums(poly, fib):
    """(all-vertical, mixed) symbol-value sums read back from scal(t):
    e = -mixed/2 and a = |V| - (3/2)*vvv - mixed, both over d."""
    mixed = -2 * poly.e / poly.d
    vvv = (len(fib.vertical_roots) - poly.a / poly.d - mixed) * Fraction(2, 3)
    return vvv, mixed


def scan_class_sums(fib):
    """The same two sums over the oracle's scan of every root pair."""
    recs = triple_scan(fib)
    vvv = sum(r.value for r in recs if r.klass == "vvv")
    return vvv, sum(r.value for r in recs) - vvv


@pytest.mark.parametrize("kind,n", ORACLE_GRID + SCAN_PAST_GRID)
def test_triples_match_the_structure_constant_oracle(kind, n):
    # The Casimir sums behind scal(t), per class of triple, against the
    # structure constants of the oracle's root strings over every
    # positive-root pair.
    fib = _fib(kind, n)
    assert casimir_class_sums(scal_wz(fib), fib) == scan_class_sums(fib)


def adjoint_casimir(roots, two_delta):
    """max over ``roots`` of <b, b + 2*delta>, in integer dot products."""
    return max(_dot(b, [x + d for x, d in zip(b, two_delta)]) for b in roots)


def _two_delta(roots):
    return [sum(r[k] for r in roots) for k in range(len(roots[0]))]


def _doubled_casimir(roots):
    # c_s becomes 2c_s.
    return adjoint_casimir(roots, _two_delta(roots))


def _top_root_left_out_of_two_delta(roots):
    # c_s with theta_s left out of 2*delta_s, less the true c_s: theta_s
    # is the one root whose absence always lowers the maximum.
    two_delta = _two_delta(roots)
    top = max(roots, key=lambda b: adjoint_casimir([b], two_delta))
    short = [x - t for x, t in zip(two_delta, top)]
    return adjoint_casimir(roots, short) - adjoint_casimir(roots, two_delta)


PLANTED_CASES = [("su", 3), ("so-odd", 2), ("sp", 4), ("so-even", 5),
                 ("g2", 2)]


# The planted cases whose fiber has a factor with N_s > r_s, where
# c_s (N_s - r_s) reaches scal(t); so-odd 2 and g2 have A1 x A1 fibers.
SCAL_SEES_CASIMIR = [("su", 3), ("sp", 4), ("so-even", 5)]


def phi1_by_walk(fib):
    return fiber_spectrum(fib, 1)[0].value


@pytest.mark.parametrize("kind,n", PLANTED_CASES)
def test_planted_cases_split_by_factor_size(kind, n):
    fib = _fib(kind, n)
    assert ((kind, n) in SCAL_SEES_CASIMIR) == any(
        len(roots) > len(basis) for roots, basis, _ in fib.casimirs)


@pytest.mark.parametrize("shift", [_doubled_casimir,
                                   _top_root_left_out_of_two_delta])
@pytest.mark.parametrize("kind,n", PLANTED_CASES)
def test_planted_casimir_slip_fails_the_oracle(monkeypatch, kind, n, shift):
    # A slip in every fiber factor's adjoint Casimir moves c_s by
    # shift(roots).  The scan must see it in scal(t) wherever some factor
    # has N_s > r_s, and the fiber walk must see it in phi1 always.
    real = curvature.adjoint_casimir
    monkeypatch.setattr(curvature, "adjoint_casimir",
                        lambda roots, rank: real(roots, rank) + shift(roots))
    fib = _fib(kind, n)
    if (kind, n) in SCAL_SEES_CASIMIR:
        assert casimir_class_sums(scal_wz(fib), fib) != scan_class_sums(fib)
    assert fib.phi1 != phi1_by_walk(fib)


@pytest.mark.parametrize("kind,n", PLANTED_CASES)
def test_factor_rank_off_by_one_fails_the_oracle(monkeypatch, kind, n):
    # Every fiber factor's first simple root counted twice: r_s one too
    # many, in its Casimir and in its N_s - r_s alike.
    real = curvature.fiber_casimirs

    def planted(fib):
        for roots, basis, _ in real(fib):
            basis += basis[:1]
            yield roots, basis, rootsys.adjoint_casimir(roots, len(basis))

    monkeypatch.setattr(fibration, "fiber_casimirs", planted)
    fib = _fib(kind, n)
    assert casimir_class_sums(scal_wz(fib), fib) != scan_class_sums(fib)
    assert fib.phi1 != phi1_by_walk(fib)


@pytest.mark.parametrize("kind,n", [("su", 3), ("so-even", 4), ("so-odd", 2),
                                    ("so-odd", 4), ("sp", 3), ("g2", 2)])
def test_a_factor_with_two_root_lengths_fails_at_phi1(kind, n):
    # Planted: the fiber made all of G, one simple factor.  Where G is
    # simply laced phi1 is then G's adjoint Casimir, 1; elsewhere phi1
    # refuses the factor.
    fib = _fib(kind, n)
    rs = fib.root_system
    whole = fib._replace(vertical_roots=rs.positive_roots,
                         horizontal_roots=(),
                         fiber_simple_roots=rs.simple_roots)
    if kind in ("su", "so-even"):
        assert whole.phi1 == 1
    else:
        with pytest.raises(AssertionError, match="two root lengths"):
            whole.phi1


@pytest.mark.parametrize("family", _fibrations(12),
                         ids=lambda f: "{}-{}".format(*f))
def test_factor_casimirs_match_the_root_search(family):
    # Each factor's simple roots and c_s against a search: the oracle's
    # factor split, and the largest <b, b + 2*delta_s> over its roots.
    fib = build_fibration(family)
    assert [(sorted(basis), c) for _, basis, c in fib.casimirs] == [
        (sorted(simple), adjoint_casimir(positive, _two_delta(positive)))
        for simple, positive in fiber_factors(fib)]


def _fiber_sum_ungrouped(vertical, summed):
    """|2*delta_F|^2 - sum |alpha|^2 over the ``vertical`` roots, in dot
    units, with 2*delta_F the sum of the roots in ``summed``.  No
    factor is grouped: by Freudenthal and de Vries' strange formula,
    |2*delta_s|^2 = c_s (2N_s + r_s)/6 on each simple factor, and the
    trace identity puts its sum of |alpha|^2 at c_s r_s/2, so with
    ``summed`` the vertical roots this is sum_s c_s (N_s - r_s)/3."""
    two_delta = [sum(col) for col in zip(*summed)]
    return (sum(x * x for x in two_delta)
            - sum(x * x for alpha in vertical for x in alpha))


def _fiber_sum_grouped(fib, doubled=None):
    """sum_s c_s (N_s - r_s)/3, the sum ``scal_wz`` takes over
    ``fib.casimirs``; the factor at index ``doubled``, if any, with its
    c_s doubled (a planted slip)."""
    return sum(c * (2 if s == doubled else 1) * (len(roots) - len(basis))
               for s, (roots, basis, c) in enumerate(fib.casimirs)) / 3


@pytest.mark.parametrize("family", _fibrations(12),
                         ids=lambda f: "{}-{}".format(*f))
def test_fiber_sum_matches_the_strange_formula(family):
    # A second derivation of scal(t)'s all-vertical sum, from 2*delta_F
    # alone; scal(t) carries it scaled in e = (sum - total)/2.
    fib = build_fibration(family)
    vertical = fib.vertical_roots
    fiber_sum = _fiber_sum_grouped(fib)
    assert fiber_sum == _fiber_sum_ungrouped(vertical, vertical)
    total = Fraction(fib.m_total // 2 - len(fib.root_system.simple_roots), 3)
    assert fib.scal.e == (fib.root_system.scale * fiber_sum - total) / 2
    # Planted controls: c_s doubled on a factor with N_s > r_s, where
    # c_s reaches the sum, and 2*delta_F without its highest root, the
    # last vertical root in the table's height order.
    wide = [s for s, (roots, basis, _) in enumerate(fib.casimirs)
            if len(roots) > len(basis)]
    for s in wide:
        assert _fiber_sum_grouped(fib, s) != fiber_sum
    assert _fiber_sum_ungrouped(vertical, vertical[:-1]) != fiber_sum


@pytest.mark.parametrize("kind,n", PLANTED_CASES)
def test_oracle_string_one_short_fails_the_equality(monkeypatch, kind, n):
    # The first root string the scan reads loses one step at its top.
    real = oracles.root_string
    seen = []

    def short(rs, alpha, beta):
        p, q = real(rs, alpha, beta)
        seen.append(alpha)
        return (p, q - 1) if len(seen) == 1 else (p, q)

    monkeypatch.setattr(oracles, "root_string", short)
    fib = _fib(kind, n)
    assert casimir_class_sums(scal_wz(fib), fib) != scan_class_sums(fib)


@pytest.mark.parametrize("n", range(2, 7))
def test_su_triple_values_all_equal(n):
    for rec in triple_scan(_fib("su", n)):
        assert rec.value == Fraction(1, n + 1)


@pytest.mark.parametrize("n", range(2, 12))
def test_su_census_matches_the_scan(n):
    # The census reads its counts off scal(t); the scan counts triples.
    fib = _fib("su", n)
    recs = triple_scan(fib)
    n_vvv = sum(r.klass == "vvv" for r in recs)
    n_mixed = len(recs) - n_vvv
    assert su_triple_census(fib) == (6 * n_vvv, 4 * n_mixed, 2 * n_mixed)


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
    sum_vvv = sum(r.value for r in triple_scan(fib) if r.klass == "vvv")
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
    assert value_at_t(scal_wz(fib), 1) == expected
    assert fib.m_total == GROUP_DIM[kind](n) - rank


def test_closed_form_spot_values():
    # Transcription anchors for the catalogued coefficients at t = 1.
    assert value_at_t(scal_closed_form(FibrationFamily("su", 2)), 1) == Fraction(5, 2)
    assert value_at_t(scal_closed_form(FibrationFamily("so-odd", 2)), 1) == 3
    assert value_at_t(scal_closed_form(FibrationFamily("sp", 3)), 1) == Fraction(213, 16)
    assert value_at_t(scal_closed_form(FibrationFamily("so-even", 4)), 1) == 15
    assert value_at_t(scal_closed_form(FibrationFamily("g2", 2)), 1) == 4


def test_wz_g2_coefficients():
    wz = scal_wz(_fib("g2", 2))
    assert wz.normalized() == (Fraction(2, 3), Fraction(4), Fraction(-2, 3))


# -- O'Neill: the t**-2 coefficient is the fiber's scalar curvature --------

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
        casimir = scale * adjoint_casimir(positive, _two_delta(positive))
        scal_f += casimir * Fraction(len(positive) + len(simple), 2)
    assert scal_wz(fib).normalized()[0] == scal_f
    assert curvature._fiber_factors(fib) == [p for _, p in fiber_factors(fib)]
    assert len(fiber_factors(fib)) == (2 if (kind, n) in (("so-odd", 2),
                                                          ("g2", 2)) else 1)
