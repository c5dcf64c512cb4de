"""Tests for degeneracy instants, Morse index jumps, rigidity and the
catalogued closed-form cross-checks."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagvar import bifurcation, fibration, surd
from flagvar.bifurcation import (degeneracy_instants, instant_base,
                                 instant_below, morse_index,
                                 multiplicity_lower_bound, solve_instant)
from flagvar.catalog import (_so_odd_sequence, _so_odd_threshold,
                             _su_sequence, _su_threshold, audit,
                             cross_check_closed_forms, scal_closed_form)
from flagvar.curvature import ScalPoly
from flagvar.exact import common_denominator
from flagvar.fibration import FibrationFamily, build_fibration
from flagvar.spectra import (SpectrumEntry, base_spectrum, flag_minimum,
                             kramer_basis, spherical_multiple_above,
                             weyl_dim)
from flagvar.surd import QuadraticSurd
from flagvar.variation import _first_entries
from oracles import (FractionSurd, ambient_weight, casimir_of_weight,
                     flag_by_gap_quadratic, fraction_surd,
                     least_multiple_above, value_at_t)
from test_variation import GOLDEN_FAMILIES


def _setup(kind, n):
    return build_fibration(FibrationFamily(kind, n))


# -- exact roots for the projective-base family ---------------------------

def test_su3_first_instant_exact():
    fib = _setup("su", 2)
    inst = degeneracy_instants(fib, instant_base(fib, Fraction(1, 10)))[0]
    assert inst.beta == 1
    assert inst.mult == 8
    assert inst.u == QuadraticSurd(-18, 1, 2, 340)
    assert inst.u == QuadraticSurd(-9, 1, 1, 85)
    t, t_error = inst.u.sqrt_to_float()
    assert abs(t - 0.46855571418230224) < 1e-12
    assert t_error <= 1e-12
    assert inst.is_bifurcation


def test_su3_second_instant_exact():
    fib = _setup("su", 2)
    instants = degeneracy_instants(fib, instant_base(fib, Fraction(1, 5)))
    assert len(instants) == 2
    second = instants[1]
    assert second.beta == Fraction(8, 3)
    assert second.mult == 27
    assert second.u == QuadraticSurd(-68, 1, 2, 4640)
    assert second.u == QuadraticSurd(-34, 1, 1, 1160)
    assert abs(second.u.sqrt_to_float()[0] - 0.24243088056764206) < 1e-12


def test_su3_first_five_instants():
    fib = _setup("su", 2)
    instants = degeneracy_instants(fib, instant_base(fib, Fraction(1, 10)))
    assert len(instants) == 5
    assert [i.beta for i in instants] == [
        Fraction(1), Fraction(8, 3), Fraction(5), Fraction(8), Fraction(35, 3)]
    assert [i.mult for i in instants] == [8, 27, 64, 125, 216]
    assert all(i.is_bifurcation for i in instants)
    assert abs(instants[4].u.sqrt_to_float()[0] - 0.10878375431661602) < 1e-9
    for first, second in zip(instants, instants[1:]):
        assert fraction_surd(second.u).cmp(fraction_surd(first.u)) < 0
        assert second.u.sqrt_to_float()[0] < first.u.sqrt_to_float()[0]


def test_su3_roots_satisfy_defining_quadratic_exactly():
    fib = _setup("su", 2)
    m = fib.m_total
    poly = fib.scal
    for inst in degeneracy_instants(fib, instant_base(fib, Fraction(1, 10))):
        u = fraction_surd(inst.u)
        residual = (poly.e * (u * u)
                    + (poly.c - inst.beta * (m - 1) * poly.d) * u + poly.a)
        assert residual.sign() == 0


# -- the even-sphere base --------------------------------------------------

def test_so5_threshold_exact():
    fib = _setup("so-odd", 2)
    inst = degeneracy_instants(fib, instant_base(fib, Fraction(1, 5)))[0]
    assert inst.beta == Fraction(2, 3)
    assert inst.mult == 5
    assert inst.u == QuadraticSurd(-4, 2, 1, 5)
    printed = (40 ** 0.5 / 2 ** 0.5 - 4) ** 0.5
    t = inst.u.sqrt_to_float()[0]
    assert abs(t - printed) < 1e-9
    assert abs(t - 0.6871214994450251) < 1e-9


# -- the exceptional family ------------------------------------------------

def test_g2_instants_at_low_cut():
    fib = _setup("g2", 2)
    instants = degeneracy_instants(fib, instant_base(fib, Fraction(11, 100)))
    assert [i.beta for i in instants] == [
        Fraction(7, 6), Fraction(5, 2), Fraction(3), Fraction(14, 3)]
    assert [i.mult for i in instants] == [27, 77, 182, 729]
    assert abs(instants[0].u.sqrt_to_float()[0] - 0.27395) < 5e-6


# -- input validation ------------------------------------------------------

def test_instant_base_rejects_bad_t_min():
    fib = _setup("su", 2)
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            instant_base(fib, bad)


def test_solve_instant_rejects_wrong_sign_polynomial(monkeypatch):
    # A > 0 > E is certified where a fresh fibration derives scal(t), so
    # an assembly that breaks it is an internal fault the solver never
    # sees.  The solver reads the fresh fibration's own ``gap``.
    one, zero = Fraction(1), Fraction(0)
    for bad in (ScalPoly(one, one, one, one),
                ScalPoly(one, one, zero, one),
                ScalPoly(zero, one, -one, one),
                ScalPoly(-one, one, -one, one)):
        monkeypatch.setattr(fibration, "scal_wz", lambda fib, p=bad: p)
        with pytest.raises(AssertionError, match="A > 0 > E"):
            solve_instant(_setup("su", 2), Fraction(1))


@pytest.mark.parametrize("kind,n", [("su", 2), ("so-odd", 2), ("sp", 3),
                                    ("so-even", 4), ("g2", 2)])
def test_bifurcation_flag_matches_the_margin_under_phi1_overrides(kind, n):
    # The flag is beta < mu1 + (1/u - 1)*phi1 at the instant u.  A small
    # phi1, as --phi1 passes it, turns flags False; check both verdicts
    # against the sign of the (mu1, phi1) gap quadratic at u.
    family = FibrationFamily(kind, n)
    for phi1 in (Fraction(1, 50), Fraction(1, 1000)):
        fib = build_fibration(family, phi1)
        instants = degeneracy_instants(fib, instant_base(fib, Fraction(1, 5)))
        for inst in instants:
            assert inst.is_bifurcation == flag_by_gap_quadratic(fib, inst.u)
        assert not all(inst.is_bifurcation for inst in instants)
    # u does not depend on phi1, and each flag with beta > mu1 turns at
    # phi1 = u*(beta - mu1)/(1 - u): probe 1% either side of it.
    mu1 = flag_minimum(family.root_family).value
    fib = build_fibration(family)
    for inst in degeneracy_instants(fib, instant_base(fib, Fraction(1, 5))):
        assert inst.is_bifurcation and flag_by_gap_quadratic(fib, inst.u)
        if inst.beta > mu1:
            u = inst.u.sqrt_to_float()[0] ** 2
            turn = Fraction(u * float(inst.beta - mu1) / (1 - u))
            for side in (Fraction(99, 100), Fraction(101, 100)):
                probe = build_fibration(family, side * turn)
                flag = solve_instant(probe, inst.beta).is_bifurcation
                assert flag == (side > 1)
                assert flag == flag_by_gap_quadratic(probe, inst.u)


ORACLE_FAMILIES = [("su", 2), ("su", 3), ("su", 4), ("so-odd", 2), ("sp", 3),
                   ("so-even", 4), ("g2", 2)]


@pytest.mark.parametrize("kind,n", ORACLE_FAMILIES)
def test_every_instant_verdict_agrees_with_the_fraction_oracle(kind, n):
    # Each verdict compares beta with s(u) at a rational u.  The Fraction
    # oracle decides the same questions on the solved surds themselves:
    # the flag as u < phi1/over, the decrease as the order of consecutive
    # instants across their fields, and the threshold as u < 1.
    family = FibrationFamily(kind, n)
    mu1 = flag_minimum(family.root_family).value
    flags = set()
    for phi1 in (None, Fraction(1, 3), Fraction(1, 50), Fraction(1, 1000)):
        fib = build_fibration(family, phi1)
        instants = degeneracy_instants(fib, instant_base(fib, Fraction(1, 20)))
        us = [fraction_surd(inst.u) for inst in instants]
        for inst, u in zip(instants, us):
            over = inst.beta + fib.phi1 - mu1
            assert inst.is_bifurcation == (over <= 0
                                           or u.cmp(fib.phi1 / over) < 0)
            flags.add(inst.is_bifurcation)
        assert all(later.cmp(earlier) < 0
                   for earlier, later in zip(us, us[1:]))
        assert us[0].cmp(1) < 0
    assert flags == {True, False}


def _planted_flag(beta, phi1, u0):
    """The flag solve_instant gives at beta when its instant is planted
    at the rational u0.

    su 2 has mu1 = 1.  At phi1 it gets the gap form (c0, c1, -k, -k, 1),
    which at beta reads k*(u0 + (u0 - 1)*u - u**2) = -k*(u - u0)*(u + 1);
    it is planted in the fibration's cache.
    """
    fib = build_fibration(FibrationFamily("su", 2), phi1)
    (c0, c1), k = common_denominator((u0, u0 - 1 + beta))
    fib.__dict__["gap"] = (c0, c1, -k, -k, 1)
    inst = solve_instant(fib, beta)
    assert inst.u == u0
    return inst.is_bifurcation


def _flag_by_fractions(beta, phi1, u):
    """beta < mu1 + (1/u - 1)*phi1 at a rational u, with su 2's mu1 = 1."""
    return beta < 1 + (1 / u - 1) * phi1


@pytest.mark.parametrize("beta,phi1", [
    (Fraction(8, 3), Fraction(1, 2)), (Fraction(1), Fraction(1, 1000)),
    (Fraction(5), Fraction(7, 3)), (Fraction(3, 2), Fraction(1, 2))])
def test_planted_flag_turns_where_u_is_phi1_over_the_excess(beta, phi1):
    # over = beta + phi1 - mu1 > 0: at u = phi1/over beta meets the
    # curve, so the strict inequality fails; 1% either side it turns.
    turn = phi1 / (beta + phi1 - 1)
    assert _planted_flag(beta, phi1, turn) is False
    assert not _flag_by_fractions(beta, phi1, turn)
    for side in (Fraction(99, 100), Fraction(101, 100)):
        u = side * turn
        flag = _planted_flag(beta, phi1, u)
        assert flag == _flag_by_fractions(beta, phi1, u) == (side < 1)


@pytest.mark.parametrize("beta,phi1", [
    (Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1)),
    (Fraction(1, 4), Fraction(1, 2))])
def test_planted_flag_holds_without_excess(beta, phi1):
    # over = beta + phi1 - mu1 <= 0 (0 for the first two): the curve
    # exceeds mu1 - phi1 >= beta at every u > 0.
    for u0 in (Fraction(1, 100), Fraction(1, 2), Fraction(99, 100),
               Fraction(3)):
        assert _planted_flag(beta, phi1, u0) is True
        assert _flag_by_fractions(beta, phi1, u0)


# -- Morse index -----------------------------------------------------------

def test_morse_index_su3():
    fib = _setup("su", 2)
    base = instant_base(fib, Fraction(1, 10))
    assert morse_index(fib, base, Fraction(1)) == 0
    assert morse_index(fib, base, Fraction(2, 5)) == 8
    assert morse_index(fib, base, Fraction(1, 5)) == 35
    # 8 + 27 + 64 + 125 + 216 below the last computed instant.
    assert morse_index(fib, base, Fraction(27, 250)) == 440


def test_morse_index_so5():
    fib = _setup("so-odd", 2)
    base = instant_base(fib, Fraction(1, 5))
    assert morse_index(fib, base, Fraction(9, 10)) == 0
    assert morse_index(fib, base, Fraction(1, 2)) == 5


def test_morse_index_nondecreasing_toward_zero():
    fib = _setup("g2", 2)
    base = instant_base(fib, Fraction(11, 100))
    samples = [Fraction(k, 100) for k in (95, 70, 50, 30, 20, 12)]
    values = [morse_index(fib, base, t) for t in samples]
    assert values == sorted(values)
    assert values[0] == 0


def _crafted(fib, *ts):
    """Base entries valued scal(t)/(m-1) at the decreasing rational t's,
    so that each t is an instant, with multiplicities 1, 2, 4, ..."""
    return [SpectrumEntry(value=value_at_t(fib.scal, t) / (fib.m_total - 1),
                          mult=2 ** k, label=(k,))
            for k, t in enumerate(ts)]


def test_morse_index_rejects_degenerate_point():
    fib = _setup("su", 2)
    with pytest.raises(ValueError, match="degenerate point"):
        morse_index(fib, _crafted(fib, Fraction(1, 2)),
                    Fraction(1, 2))


def test_degenerate_point_inside_a_list_of_instants():
    fib = _setup("su", 2)
    base = _crafted(fib, Fraction(3, 4), Fraction(1, 2),
                    Fraction(1, 4), Fraction(1, 8))
    for t in (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        with pytest.raises(ValueError, match="degenerate point"):
            morse_index(fib, base, t)
        assert multiplicity_lower_bound(fib, base, t) == 1
    assert morse_index(fib, base, Fraction(1)) == 0
    assert morse_index(fib, base, Fraction(5, 8)) == 1
    assert morse_index(fib, base, Fraction(3, 8)) == 3
    assert morse_index(fib, base, Fraction(1, 16)) == 15
    assert multiplicity_lower_bound(fib, base, Fraction(5, 8)) == 3
    assert multiplicity_lower_bound(fib, base, Fraction(1, 16)) == 1


def _linear_scan(instants, t):
    """Reference: compare t**2 with every instant.  Returns the Morse
    index (None on an instant) and the solution-count lower bound."""
    signs = [(inst.u > t * t) - (inst.u < t * t) for inst in instants]
    index = (None if 0 in signs else
             sum(inst.mult for inst, s in zip(instants, signs) if s > 0))
    between = any(above > 0 > below
                  for above, below in zip(signs, signs[1:]))
    return index, 3 if between else 1


@pytest.mark.parametrize("kind,n", [("su", 2), ("su", 3), ("so-odd", 2),
                                    ("sp", 3), ("so-even", 4), ("g2", 2)])
def test_bisection_matches_the_linear_scan(kind, n):
    # Every point of the morse command's grid, at tmin 0.007, or 0.01
    # for the bases of rank 3 and 4, which have thousands of instants.
    fib = _setup(kind, n)
    t_min = (Fraction(1, 100) if kind in ("sp", "so-even")
             else Fraction(7, 1000))
    base = instant_base(fib, t_min)
    instants = degeneracy_instants(fib, base)
    assert len(instants) > 80
    for i in range(101):
        t = t_min + (1 - t_min) * i / 100
        index, count = _linear_scan(instants, t)
        assert morse_index(fib, base, t) == index
        assert multiplicity_lower_bound(fib, base, t) == count


# Every valid family up to rank 10 (so-odd skips n = 3) at tmin 1/20,
# 1/10 and 1/5.  Solving every rank 7-10 cell at 1/20 takes about 1 s
# on a 2-core machine, sp 10 the slowest at about 0.2 s.
PROPERTY_FAMILIES = [(kind, n)
                     for kind, low in (("su", 2), ("so-odd", 2), ("sp", 3),
                                       ("so-even", 4))
                     for n in range(low, 11) if (kind, n) != ("so-odd", 3)]
PROPERTY_GRID = [(kind, n, t_min)
                 for kind, n in PROPERTY_FAMILIES + [("g2", 2)]
                 for t_min in (Fraction(1, 20), Fraction(1, 10),
                               Fraction(1, 5))]


@lru_cache(maxsize=None)
def _solved(kind, n, t_min):
    fib = _setup(kind, n)
    base = instant_base(fib, t_min)
    return fib, base, degeneracy_instants(fib, base)


@lru_cache(maxsize=None)
def _decreasing_by_the_oracle(kind, n, t_min):
    """Whether the Fraction oracle orders the cell's solved instants by
    strictly decreasing u, across their fields."""
    us = [fraction_surd(inst.u) for inst in _solved(kind, n, t_min)[2]]
    return all(later.cmp(earlier) < 0 for earlier, later in zip(us, us[1:]))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PROPERTY_GRID), st.data())
def test_instants_decrease_and_morse_counts_the_instants_above(cell, data):
    kind, n, t_min = cell
    fib, base, instants = _solved(kind, n, t_min)
    assert _decreasing_by_the_oracle(kind, n, t_min)
    assert all(later.beta > earlier.beta
               for earlier, later in zip(instants, instants[1:]))
    # Gap k lies below instants[:k] and above the rest, t_min closing it.
    k = data.draw(st.integers(0, len(instants)), label="gap")
    hi = instants[k - 1].u.sqrt_to_float()[0] if k else 1.0
    lo = (instants[k].u.sqrt_to_float()[0] if k < len(instants)
          else float(t_min))
    t = Fraction((lo + hi) / 2)
    assert t_min < t < 1
    assert k == 0 or t * t < instants[k - 1].u
    assert k == len(instants) or instants[k].u < t * t
    # Base bisection against the solved instants: two code paths.
    assert morse_index(fib, base, t) == sum(i.mult for i in instants[:k])


def test_morse_index_rejects_t_outside_range():
    fib = _setup("su", 2)
    with pytest.raises(ValueError):
        morse_index(fib, [], Fraction(0))
    with pytest.raises(ValueError):
        morse_index(fib, [], Fraction(3, 2))


# -- solution counts -------------------------------------------------------

def test_multiplicity_lower_bound():
    fib = _setup("su", 2)
    base = instant_base(fib, Fraction(1, 10))
    assert multiplicity_lower_bound(fib, base, Fraction(3, 10)) == 3
    assert multiplicity_lower_bound(fib, base, Fraction(1)) == 1
    assert multiplicity_lower_bound(fib, base, Fraction(9, 10)) == 1
    with pytest.raises(ValueError):
        multiplicity_lower_bound(fib, base, Fraction(0))


def test_multiplicity_above_threshold_is_one():
    fib = _setup("g2", 2)
    base = instant_base(fib, Fraction(11, 100))
    assert multiplicity_lower_bound(fib, base, Fraction(9, 10)) == 1


def test_instant_base_is_the_base_spectrum_to_the_cutoff():
    fib = _setup("g2", 2)
    t_min = Fraction(1, 20)
    cutoff = value_at_t(fib.scal, t_min) / (fib.m_total - 1)
    assert list(instant_base(fib, t_min)) == base_spectrum(
        fib.family, cutoff)


# -- eventual collapse of the instants ------------------------------------

@pytest.mark.parametrize("kind,n,beta", [
    ("su", 2, Fraction(1365)),
    ("so-odd", 2, Fraction(5777, 3)),
    ("sp", 3, Fraction(1127, 2)),
    ("so-even", 4, Fraction(1334)),
    ("g2", 2, Fraction(612)),
])
def test_instant_below_one_hundredth(kind, n, beta):
    fib = _setup(kind, n)
    inst = instant_below(fib, Fraction(1, 100))
    assert inst.beta == beta
    assert inst.u < Fraction(1, 10000)
    assert inst.u.sqrt_to_float()[0] < 0.01


WITNESS_FAMILIES = [("su", 2), ("su", 5), ("so-odd", 2), ("so-odd", 6),
                    ("sp", 3), ("sp", 5), ("so-even", 4), ("so-even", 7),
                    ("g2", 2)]


@pytest.mark.parametrize("kind,n", WITNESS_FAMILIES)
@pytest.mark.parametrize("eps", [Fraction(1, 100), Fraction(1, 1000)],
                         ids=str)
def test_instant_below_takes_the_least_multiple_above_the_target(kind, n,
                                                                 eps):
    # The witness is k*gen, gen the first spherical generator and k the
    # least multiple whose ambient Casimir exceeds scal(eps)/(m-1).
    fib = _setup(kind, n)
    family = fib.family.root_family
    gen = kramer_basis(fib.family)[0]

    def casimir(k):
        return casimir_of_weight(
            family, ambient_weight(family, [k * c for c in gen]))

    target = value_at_t(fib.scal, eps) / (fib.m_total - 1)
    k = least_multiple_above(casimir, target)
    inst = instant_below(fib, eps)
    assert inst == solve_instant(fib, casimir(k),
                                 weyl_dim(family, tuple(k * c for c in gen)))
    assert inst.u < eps * eps


@pytest.mark.parametrize("kind,n", WITNESS_FAMILIES)
def test_the_multiple_above_the_target_at_eps_1e_12_is_least(kind, n):
    # k is near 10**12 here, out of the oracle loop's reach: check the
    # defining inequality at k and at k - 1 by the ambient Casimir.
    fib = _setup(kind, n)
    family = fib.family.root_family
    gen = kramer_basis(fib.family)[0]
    target = value_at_t(fib.scal, Fraction(1, 10**12)) / (fib.m_total - 1)
    value, coeffs = spherical_multiple_above(fib.family, target)
    i = next(i for i, c in enumerate(gen) if c)
    k, rest = divmod(coeffs[i], gen[i])
    assert rest == 0 and coeffs == tuple(k * c for c in gen)
    assert k > 10**11
    assert value == casimir_of_weight(family, ambient_weight(family, coeffs))
    assert value > target >= casimir_of_weight(
        family, ambient_weight(family, [(k - 1) * c for c in gen]))


# -- catalogued closed-form sequences -------------------------------------

def test_cross_check_su_all_agree():
    fib = _setup("su", 2)
    base = instant_base(fib, Fraction(1, 10))
    instants = degeneracy_instants(fib, base)
    rows = cross_check_closed_forms(fib, base, instants)
    assert len(rows) == 5
    assert all(row["agree"] for row in rows)
    assert all(not row["note"] for row in rows)


def test_cross_check_so_odd_radicand_mismatch():
    fib = _setup("so-odd", 2)
    base = instant_base(fib, Fraction(2, 10))
    instants = degeneracy_instants(fib, base)
    rows = cross_check_closed_forms(fib, base, instants)
    assert rows[0]["agree"]
    for row in rows[1:]:
        assert not row["agree"]
        assert "radicand" in row["note"]


def _catalogued_scal_residual(fib, beta, x):
    """The catalogued scal's instant quadratic at beta, evaluated at x."""
    closed = scal_closed_form(fib.family)
    return (closed.e * (x * x)
            + (closed.c - beta * (fib.m_total - 1) * closed.d) * x + closed.a)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_so_odd_threshold_is_the_catalogued_scal_instant(n):
    # The catalogued threshold solves the defining quadratic of the
    # catalogued scalar curvature, which is wrong for n >= 4, so it
    # misses the instant of the assembled one.
    fib = _setup("so-odd", n)
    beta = Fraction(n, 2 * n - 1)
    x = fraction_surd(_so_odd_threshold(n))
    assert x.sign() > 0
    assert _catalogued_scal_residual(fib, beta, x).sign() == 0
    assert x.cmp(fraction_surd(solve_instant(fib, beta).u)) != 0


@pytest.mark.parametrize("n", range(2, 13))
def test_su_threshold_is_the_sequence_at_its_first_index(n):
    assert _su_threshold(n) == _su_sequence(n, 1)


@pytest.mark.parametrize("n", [2, 4, 5, 6, 7])
def test_so_odd_quartered_sequence_is_a_catalogued_scal_instant(n):
    # Like the threshold, the sequence is built on the catalogued
    # scal(t): with its radicand divided by 4, (p + q*sqrt(d))/r becomes
    # (2p + q*sqrt(d))/(2r), a root of that scal's instant quadratic at
    # the q-th base eigenvalue.  As printed it is not (planted control).
    fib = _setup("so-odd", n)
    first_six = _first_entries(lambda cut: base_spectrum(fib.family, cut), 6)
    for q, entry in enumerate(first_six, start=1):
        u = _so_odd_sequence(n, q)
        quartered = FractionSurd(2 * u.p, u.q, 2 * u.r, u.d)
        assert quartered.sign() > 0
        assert _catalogued_scal_residual(fib, entry.value, quartered).sign() == 0
        assert _catalogued_scal_residual(
            fib, entry.value, fraction_surd(u)).sign() != 0


def test_cross_check_g2_mismatch_only_off_axis():
    fib = _setup("g2", 2)
    base = instant_base(fib, Fraction(11, 100))
    instants = degeneracy_instants(fib, base)
    rows = cross_check_closed_forms(fib, base, instants)
    assert len(rows) == 4
    by_label = {row["label"]: row for row in rows}
    for label, row in by_label.items():
        r, s = label
        if r and s:
            assert not row["agree"]
            assert "33" in row["note"]
        else:
            assert row["agree"]


def _agreeing_rows():
    """The cross-check rows that agree, at tmin 1/20, over the families
    with a catalogued sequence."""
    rows = []
    for kind, n in [("su", 2), ("su", 3), ("su", 5), ("so-odd", 2),
                    ("g2", 2)]:
        fib = _setup(kind, n)
        base = instant_base(fib, Fraction(1, 20))
        rows += [row for row in cross_check_closed_forms(
            fib, base, degeneracy_instants(fib, base)) if row["agree"]]
    return rows


def test_agreeing_cross_check_rows_print_alike():
    # The solved u comes from the gap form, the catalogued one from its
    # closed form; equal values print as one string, whatever the path.
    rows = _agreeing_rows()
    assert len(rows) == 57
    assert all(str(row["solved"]) == str(row["catalogued"]) for row in rows)


def test_a_surd_without_its_gcd_step_prints_by_path(monkeypatch):
    # Planted control: the constructor with no common factor divided
    # out, so each u keeps the scale of the path that made it.
    monkeypatch.setattr(surd, "gcd", lambda *args: 1)
    rows = _agreeing_rows()
    assert len(rows) == 57 and all(row["agree"] for row in rows)
    assert not all(str(row["solved"]) == str(row["catalogued"])
                   for row in rows)


@pytest.mark.parametrize("kind,n", [("sp", 3), ("so-even", 4)])
def test_cross_check_empty_where_no_sequences_catalogued(kind, n):
    fib = _setup(kind, n)
    base = instant_base(fib, Fraction(1, 2))
    assert cross_check_closed_forms(
        fib, base, degeneracy_instants(fib, base)) == []


# -- floats only at the output edge ---------------------------------------

def _floats_in(value):
    """Every float inside ``value``: through tuples, lists, dict keys and
    values, and the slots or attributes of any other object."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, (int, str, Fraction, type(None))):
        return []
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (tuple, list)):
        items = value
    elif hasattr(value, "__slots__"):
        items = [getattr(value, name) for name in value.__slots__]
    else:
        items = vars(value).values()
    return [found for item in items for found in _floats_in(item)]


@pytest.mark.parametrize("kind,n", GOLDEN_FAMILIES)
def test_instants_cross_checks_and_audit_hold_no_float(kind, n):
    # A float t is made only where it is printed, from u.
    fib = _setup(kind, n)
    base = instant_base(fib, Fraction(1, 10))
    instants = degeneracy_instants(fib, base)
    assert instants
    assert _floats_in([instants, cross_check_closed_forms(fib, base, instants),
                       audit(fib)]) == []


def test_a_row_holding_a_float_fails_the_walk():
    fib = _setup("su", 2)
    base = instant_base(fib, Fraction(1, 10))
    rows = cross_check_closed_forms(fib, base, degeneracy_instants(fib, base))
    assert _floats_in(rows) == []
    rows[0]["solved"] = rows[0]["solved"].sqrt_to_float()[0]
    assert _floats_in(rows) == [rows[0]["solved"]]
