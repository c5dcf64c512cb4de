"""Tests for the flag, base and fiber spectra and the two
catalogued-inconsistency reports."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagvar import spectra
from flagvar.catalog import (CATALOGUE, bn_dominance_row_report,
                             cn_first_eigenvalue_report)
from flagvar.curvature import _fiber_factors
from flagvar.fibration import FAMILY_KEYS, FibrationFamily, build_fibration
from flagvar.rootsys import (FamilyTag, build_root_system, ck_inner,
                             gram_matrix)
from flagvar.spectra import (_base_form, _form, _fundamental_coefficients,
                             _lattice_points, _simple_gram, _weyl_rows,
                             base_spectrum, fiber_spectrum, flag_minimum,
                             flag_spectrum, is_dominant_class_one,
                             kramer_basis, weyl_dim)
from oracles import (ambient_weight, casimir_of_weight, catalogued_c_mu,
                     cpn_multiplicity, flag_mu, freudenthal_multiplicities,
                     fundamental_coefficients, gram_products,
                     highest_short_root_casimir, inverse_base_form,
                     least_multiple_above, simple_coordinates, solve_linear,
                     sphere_multiplicity)
from test_acceptance import CASES


def class_one_weight(family, p):
    """Ambient weight sum p_i*alpha_i."""
    simple = build_root_system(family).simple_roots
    return tuple(sum(x * alpha[k] for x, alpha in zip(p, simple))
                 for k in range(len(simple[0])))


def g2_base_value(r, s):
    """Catalogued base eigenvalue polynomial for the g2 family."""
    return Fraction(9 * r + 6 * r * r + 5 * s + 6 * r * s + 2 * s * s, 6)


# -- eigenvalue polynomials and their Casimir oracle ----------------------

def catalogued_mu(family, p):
    """The catalogued class-one eigenvalue polynomials, per family.

    G2 coefficients are short-root-first, like the simple roots.
    """
    kind, n = family.kind, family.rank
    if kind == "A":
        inner = (sum(x * x for x in p)
                 - sum(p[i] * p[i + 1] for i in range(n - 1))
                 + sum(p))
        return Fraction(inner, n + 1)
    if kind == "B":
        inner = (2 * sum(x * x for x in p[:-1]) + p[-1] ** 2
                 - 2 * sum(p[i] * p[i + 1] for i in range(n - 1))
                 + 2 * sum(p[:-1]) + p[-1])
        return Fraction(inner, 4 * n - 2)
    if kind == "C":
        inner = (sum(x * x for x in p[:-1]) + 2 * p[-1] ** 2
                 - sum(p[i] * p[i + 1] for i in range(n - 2))
                 - p[-2] * p[-1]
                 + sum(p[:-1]) + 2 * p[-1])
        return Fraction(inner, 2 * (n + 1))
    if kind == "D":
        inner = (sum(x * x for x in p)
                 - sum(p[i] * p[i + 1] for i in range(n - 2))
                 - p[-3] * p[-1]
                 + sum(p))
        return Fraction(inner, 2 * (n - 1))
    p1, p2 = p
    inner = p1 * p1 + 3 * p2 * p2 - 3 * p1 * p2 + p1 + 3 * p2
    return Fraction(inner, 12)


def _box(rank):
    return product(range(1, 4) if rank <= 3 else range(1, 3), repeat=rank)


@pytest.mark.parametrize("kind,rank", [("A", n) for n in range(1, 7)]
                         + [("B", n) for n in range(2, 7)]
                         + [("D", n) for n in range(4, 7)] + [("G2", 2)])
def test_flag_mu_matches_catalogued_polynomial(kind, rank):
    # Checked on every p of the box, dominant or not: a polynomial
    # identity, of which the dominant points are the part used.
    family = FamilyTag(kind, rank)
    for p in _box(rank):
        assert flag_mu(family, p) == catalogued_mu(family, p)


@pytest.mark.parametrize("n", range(3, 7))
def test_catalogued_c_halves_the_casimir_cross_term(n):
    family = FamilyTag("C", n)
    for p in _box(n):
        assert catalogued_c_mu(p) == catalogued_mu(family, p)
        assert (catalogued_c_mu(p) - flag_mu(family, p)
                == Fraction(p[-2] * p[-1], 2 * (n + 1)))


@pytest.mark.parametrize("n", range(3, 9))
def test_c_flag_minimum_is_the_short_highest_root(n):
    # lam = e1 + e2 = (1, 2, ..., 2, 1) in simple roots, the highest
    # weight of Lambda^2_0, whose zero weight makes it class one.
    entry = flag_minimum(FamilyTag("C", n))
    assert entry.value == Fraction(n, n + 1)
    assert entry.label == ((1,) + (2,) * (n - 2) + (1,),)

def test_flag_mu_unit_values():
    assert flag_mu(FamilyTag("A", 2), (1, 1)) == 1
    assert flag_mu(FamilyTag("A", 5), (1,) * 5) == 1
    assert flag_mu(FamilyTag("B", 2), (1, 1)) == Fraction(2, 3)
    assert flag_mu(FamilyTag("G2", 2), (2, 1)) == Fraction(1, 2)


def test_flag_mu_validates_input():
    with pytest.raises(ValueError):
        flag_mu(FamilyTag("A", 2), (1,))
    with pytest.raises(ValueError):
        flag_mu(FamilyTag("A", 2), (1, 0))


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 4), ("B", 2),
                                       ("B", 4), ("C", 3), ("C", 4),
                                       ("D", 4), ("D", 5), ("G2", 2)])
def test_flag_mu_matches_casimir(kind, rank):
    # The Gram-matrix form is the Casimir number of the ambient weight
    # sum p_i * alpha_i; checked on a box of dominant p.
    family = FamilyTag(kind, rank)
    values = range(1, 4) if rank <= 2 else range(1, 3)
    for p in product(values, repeat=rank):
        if not is_dominant_class_one(family, p):
            continue
        lam = class_one_weight(family, p)
        assert flag_mu(family, p) == casimir_of_weight(family, lam)


def test_flag_mu_c_family_differs_from_casimir():
    # The catalogued sp polynomial is kept verbatim; it is not the
    # Casimir of the same weight, which is the reported discrepancy.
    family = FamilyTag("C", 3)
    p = (1, 2, 1)
    lam = class_one_weight(family, p)
    assert catalogued_c_mu(p) == 1
    assert catalogued_c_mu(p) != casimir_of_weight(family, lam)


# -- flag spectra ----------------------------------------------------------

def test_flag_minimum_values():
    assert flag_minimum(FamilyTag("A", 2)).value == 1
    assert flag_minimum(FamilyTag("A", 5)).value == 1
    assert flag_minimum(FamilyTag("B", 2)).value == Fraction(2, 3)
    assert flag_minimum(FamilyTag("B", 4)).value == Fraction(4, 7)
    assert flag_minimum(FamilyTag("C", 3)).value == Fraction(3, 4)
    assert flag_minimum(FamilyTag("C", 5)).value == Fraction(5, 6)
    assert flag_minimum(FamilyTag("D", 4)).value == 1
    assert flag_minimum(FamilyTag("D", 6)).value == 1
    assert flag_minimum(FamilyTag("G2", 2)).value == Fraction(1, 2)


def test_flag_minimum_argmin_shapes():
    assert flag_minimum(FamilyTag("C", 4)).label[0] == (1, 2, 2, 1)
    assert flag_minimum(FamilyTag("A", 3)).label[0] == (1, 1, 1)


def test_flag_spectrum_sorted_and_complete():
    entries = flag_spectrum(FamilyTag("A", 2), Fraction(4))
    values = [e.value for e in entries]
    assert values == sorted(values)
    assert values[0] == 1
    assert all(e.mult is None for e in entries)
    # Exactly the dominant class-one values <= 4: enumerate directly.
    direct = set()
    for p1 in range(1, 10):
        for p2 in range(1, 10):
            if not is_dominant_class_one(FamilyTag("A", 2), (p1, p2)):
                continue
            v = flag_mu(FamilyTag("A", 2), (p1, p2))
            if v <= 4:
                direct.add(v)
    assert set(values) == direct


def test_flag_spectrum_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        flag_spectrum(FamilyTag("A", 2), 0)


# -- dimensions and closed-form multiplicities ----------------------------

def test_weyl_dim_examples():
    assert weyl_dim(FamilyTag("A", 2), (1, 1)) == 8
    assert weyl_dim(FamilyTag("A", 2), (1, 0)) == 3
    assert weyl_dim(FamilyTag("A", 2), (0, 0)) == 1
    assert weyl_dim(FamilyTag("A", 1), (2,)) == 3
    assert weyl_dim(FamilyTag("B", 2), (1, 0)) == 5
    assert weyl_dim(FamilyTag("B", 2), (0, 2)) == 10
    assert weyl_dim(FamilyTag("G2", 2), (0, 1)) == 14
    assert weyl_dim(FamilyTag("G2", 2), (1, 0)) == 7
    with pytest.raises(ValueError):
        weyl_dim(FamilyTag("A", 2), (-1, 1))


def test_ambient_weight_validates_length():
    with pytest.raises(ValueError):
        ambient_weight(FamilyTag("A", 2), (1,))
    with pytest.raises(ValueError):
        weyl_dim(FamilyTag("A", 2), (1,))


def weyl_dim_ambient(family, coeffs):
    """Reference Weyl product: <lam + delta, alpha> / <delta, alpha> over
    the positive roots, in the CK form on ambient coordinates."""
    rs = build_root_system(family)
    delta = tuple(sum(r[k] for r in rs.positive_roots) / Fraction(2)
                  for k in range(len(rs.positive_roots[0])))
    shifted = tuple(x + d for x, d in
                    zip(ambient_weight(family, coeffs), delta))
    result = Fraction(1)
    for alpha in rs.positive_roots:
        result *= (ck_inner(rs.scale, shifted, alpha)
                   / ck_inner(rs.scale, delta, alpha))
    return result


@pytest.mark.parametrize("family", [FamilyTag("A", n) for n in range(1, 7)]
                         + [FamilyTag("B", n) for n in range(2, 6)]
                         + [FamilyTag("C", n) for n in range(3, 6)]
                         + [FamilyTag("D", n) for n in range(4, 7)]
                         + [FamilyTag("G2", 2)],
                         ids=lambda f: "{}{}".format(f.kind, f.rank))
def test_weyl_dim_matches_the_ambient_product(family):
    # Coefficients <= 2 with sum <= 4.
    for c in product(range(3), repeat=family.rank):
        if sum(c) <= 4:
            assert weyl_dim(family, c) == weyl_dim_ambient(family, c)


# -- the integer weight kernel against the Fraction solve -----------------

KERNEL_FAMILIES = ([FamilyTag("A", n) for n in range(1, 11)]
                   + [FamilyTag("B", n) for n in range(2, 11)]
                   + [FamilyTag("C", n) for n in range(3, 11)]
                   + [FamilyTag("D", n) for n in range(4, 11)]
                   + [FamilyTag("G2", 2)])

# Dimension of the defining representation, the one with highest weight
# omega_1 (G2: the 7-dimensional one, omega of the short simple root).
DEFINING_DIM = {"A": lambda n: n + 1, "B": lambda n: 2 * n + 1,
                "C": lambda n: 2 * n, "D": lambda n: 2 * n, "G2": lambda n: 7}


def family_id(family):
    return "{}{}".format(family.kind, family.rank)


def test_solve_linear_known_system():
    sol = solve_linear([[2, 1], [1, 3]], [5, 10])
    assert sol == [Fraction(1), Fraction(3)]


def test_solve_linear_rejects_singular():
    with pytest.raises(ValueError):
        solve_linear([[1, 2], [2, 4]], [1, 1])


def assert_kernel_matches_the_fraction_solve(gram):
    coeffs, den = _fundamental_coefficients(gram)
    assert all(isinstance(x, int) for row in coeffs for x in row)
    assert den > 0
    assert [[Fraction(x, den) for x in row]
            for row in coeffs] == fundamental_coefficients(gram)


@pytest.mark.parametrize("family", KERNEL_FAMILIES, ids=family_id)
def test_fundamental_coefficients_match_the_fraction_solve(family):
    assert_kernel_matches_the_fraction_solve(_simple_gram(family))


@pytest.mark.parametrize("kind,n", CASES)
def test_fiber_fundamental_coefficients_match_the_fraction_solve(kind, n):
    # The fiber's Gram matrix is block-diagonal when the fiber is a product.
    fib = build_fibration(FibrationFamily(kind, n))
    assert_kernel_matches_the_fraction_solve(
        gram_matrix(fib.fiber_simple_roots))


def test_fundamental_coefficients_reject_a_singular_gram():
    with pytest.raises(AssertionError):
        _fundamental_coefficients(((1, 2), (2, 4)))


@pytest.mark.parametrize("family", [FamilyTag("A", n) for n in (1, 2, 3)]
                         + [FamilyTag("B", 2), FamilyTag("B", 3),
                            FamilyTag("C", 3), FamilyTag("D", 4),
                            FamilyTag("G2", 2)], ids=family_id)
def test_weyl_dim_matches_freudenthal(family):
    # Every dominant weight with coefficient sum <= 2: the weight
    # multiplicities add up to the dimension, and lam itself has one.
    for c in product(range(3), repeat=family.rank):
        if sum(c) <= 2:
            mult = freudenthal_multiplicities(family, c)
            assert sum(mult.values()) == weyl_dim(family, c)
            assert mult[ambient_weight(family, c)] == 1


@pytest.mark.parametrize("family", [FamilyTag("A", n) for n in (1, 2, 3, 4)]
                         + [FamilyTag("B", n) for n in (2, 3, 4)]
                         + [FamilyTag("C", 3), FamilyTag("C", 4),
                            FamilyTag("D", 4), FamilyTag("G2", 2)],
                         ids=family_id)
def test_class_one_is_the_root_lattice_by_freudenthal(family):
    # Every dominant lam with Casimir <= 2, walked up from 0 (adding a
    # fundamental weight raises the Casimir): the zero weight occurs in
    # V_lam exactly when lam is in the root lattice, and those lam other
    # than 0 are the labels of flag_spectrum(family, 2), at their Casimir.
    simple = build_root_system(family).simple_roots
    omegas = fundamental_coefficients(
        [[sum(x * y for x, y in zip(a, b)) for b in simple] for a in simple])
    zero = (0,) * len(simple[0])
    seen, todo, lattice = set(), [(0,) * family.rank], {}
    while todo:
        c = todo.pop()
        if c in seen:
            continue
        seen.add(c)
        value = casimir_of_weight(family, ambient_weight(family, c))
        if value > 2:
            continue
        p = tuple(sum(x * w[i] for x, w in zip(c, omegas))
                  for i in range(family.rank))
        integral = all(x.denominator == 1 for x in p)
        has_zero = freudenthal_multiplicities(family, c).get(zero, 0) > 0
        assert has_zero == integral
        if integral and any(c):
            lattice[tuple(int(x) for x in p)] = value
        todo += [c[:i] + (x + 1,) + c[i + 1:] for i, x in enumerate(c)]
    assert lattice == {p: e.value for e in flag_spectrum(family, 2)
                       for p in e.label}


@pytest.mark.parametrize("family", KERNEL_FAMILIES, ids=family_id)
def test_weyl_dim_of_the_adjoint_and_defining_representations(family):
    rs = build_root_system(family)
    # The highest root has the largest height sum k_i; its
    # fundamental-weight coefficients are 2<theta, alpha_i>/|alpha_i|^2.
    theta = max(rs.positive_roots, key=lambda r: sum(simple_coordinates(rs, r)))
    adjoint = tuple(2 * sum(x * y for x, y in zip(theta, s))
                    // sum(x * x for x in s) for s in rs.simple_roots)
    assert weyl_dim(family, adjoint) == 2 * len(rs.positive_roots) + family.rank
    omega1 = (1,) + (0,) * (family.rank - 1)
    assert weyl_dim(family, omega1) == DEFINING_DIM[family.kind](family.rank)


@pytest.mark.parametrize("family", KERNEL_FAMILIES, ids=family_id)
def test_weyl_rows_are_root_coordinates_times_simple_lengths(family):
    rs = build_root_system(family)
    rows, _ = _weyl_rows(family)
    lengths = [sum(x * x for x in s) for s in rs.simple_roots]
    for alpha, row in zip(rs.positive_roots, rows):
        assert list(row) == [k * g for k, g in
                             zip(simple_coordinates(rs, alpha), lengths)]


# Every valid rank up to 12.
COORDINATE_FAMILIES = ([FamilyTag("A", n) for n in range(1, 13)]
                       + [FamilyTag("B", n) for n in range(2, 13)]
                       + [FamilyTag("C", n) for n in range(3, 13)]
                       + [FamilyTag("D", n) for n in range(4, 13)]
                       + [FamilyTag("G2", 2)])


def assert_the_table_rebuilds_every_root(rs):
    """Each row k of ``rs.coordinates`` is integral and sum k_i alpha_i
    over the simple roots is the positive root in that row."""
    assert all(type(k) is int for row in rs.coordinates for k in row)
    assert tuple(tuple(map(sum, zip(*([k * x for x in alpha] for k, alpha
                                      in zip(row, rs.simple_roots)))))
                 for row in rs.coordinates) == rs.positive_roots


@pytest.mark.parametrize("family", COORDINATE_FAMILIES, ids=family_id)
def test_root_coordinates_rebuild_every_positive_root(family):
    assert_the_table_rebuilds_every_root(build_root_system(family))


def test_a_root_coordinate_off_by_one_fails_the_rebuild():
    # The negative control: one entry of one row off by one.
    rs = build_root_system(FamilyTag("B", 3))
    first, *rest = rs.coordinates
    planted = rs._replace(coordinates=((first[0] + 1,) + first[1:], *rest))
    with pytest.raises(AssertionError):
        assert_the_table_rebuilds_every_root(planted)


def test_cpn_multiplicity():
    assert cpn_multiplicity(2, 1) == 8
    assert cpn_multiplicity(2, 2) == 27
    assert cpn_multiplicity(3, 1) == 15
    # Matches the Weyl dimension of the corresponding ambient weight.
    assert cpn_multiplicity(2, 3) == weyl_dim(FamilyTag("A", 2), (3, 3))


def test_sphere_multiplicity():
    assert sphere_multiplicity(2, 1) == 5
    assert sphere_multiplicity(2, 2) == 14
    assert sphere_multiplicity(3, 1) == 7
    assert sphere_multiplicity(2, 1) == weyl_dim(FamilyTag("B", 2), (1, 0))
    assert sphere_multiplicity(2, 2) == weyl_dim(FamilyTag("B", 2), (2, 0))


# -- spherical generator bases --------------------------------------------

def test_kramer_bases():
    assert kramer_basis(FibrationFamily("su", 3)) == ((1, 0, 1),)
    assert kramer_basis(FibrationFamily("so-odd", 2)) == ((1, 0),)
    assert kramer_basis(FibrationFamily("sp", 3)) == (
        (2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert kramer_basis(FibrationFamily("so-even", 4)) == (
        (0, 1, 0, 0), (0, 0, 0, 2))
    assert kramer_basis(FibrationFamily("so-even", 5)) == (
        (0, 1, 0, 0, 0), (0, 0, 0, 1, 1))
    assert kramer_basis(FibrationFamily("so-even", 6)) == (
        (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 2))
    assert kramer_basis(FibrationFamily("g2", 2)) == ((0, 2), (2, 0))


# -- base spectra ----------------------------------------------------------

def test_base_spectrum_su_closed_form():
    entries = base_spectrum(FibrationFamily("su", 2), Fraction(4))
    assert [(e.value, e.mult) for e in entries] == [
        (Fraction(1), 8), (Fraction(8, 3), 27)]
    # q(q+n)/(n+1) is the Casimir of the q-th generator multiple.
    family = FamilyTag("A", 2)
    for q in (1, 2, 3):
        lam = ambient_weight(family, (q, q))
        assert casimir_of_weight(family, lam) == Fraction(q * (q + 2), 3)


def test_base_spectrum_sphere_closed_form():
    entries = base_spectrum(FibrationFamily("so-odd", 2), Fraction(3))
    assert [(e.value, e.mult) for e in entries] == [
        (Fraction(2, 3), 5), (Fraction(5, 3), 14), (Fraction(3), 30)]
    family = FamilyTag("B", 2)
    for q in (1, 2):
        lam = ambient_weight(family, (q, 0))
        assert casimir_of_weight(family, lam) == Fraction(q * (q + 3), 6)


def test_base_spectrum_minima():
    # Every first base value is at most 2, so one walk at 2 finds it.
    for kind, n, first in [("su", 2, 1), ("so-odd", 4, Fraction(4, 7)),
                           ("sp", 3, 1), ("so-even", 4, 1),
                           ("g2", 2, Fraction(7, 6))]:
        assert base_spectrum(FibrationFamily(kind, n), 2)[0].value == first


def test_base_spectrum_g2_values_and_first_multiplicity():
    entries = base_spectrum(FibrationFamily("g2", 2), Fraction(3))
    first = entries[0]
    assert first.value == Fraction(7, 6)
    assert first.mult == 27
    assert first.label == ((0, 1),)
    for e in entries:
        for r, s in e.label:
            assert g2_base_value(r, s) == e.value


def test_base_spectrum_merges_equal_values():
    # Generators can collide in value; labels then accumulate under one
    # entry, whose multiplicity the brute-force box below checks against
    # weyl_dim summed over the label.  Each family has such values under 6.
    for kind, n in (("so-even", 4), ("sp", 5), ("so-even", 7)):
        entries = base_spectrum(FibrationFamily(kind, n), Fraction(6))
        assert any(len(e.label) > 1 for e in entries)


def test_base_spectrum_sp_first_value_is_one():
    entries = base_spectrum(FibrationFamily("sp", 3), Fraction(1))
    assert entries[0].value == 1
    assert entries[0].label == ((1, 0, 0),)


# -- fiber spectra ---------------------------------------------------------

FIBER_FIRST = {("su", 2): Fraction(2, 3), ("su", 4): Fraction(4, 5),
               ("so-odd", 2): Fraction(2, 3), ("so-odd", 4): Fraction(6, 7),
               ("sp", 3): Fraction(3, 8), ("so-even", 4): Fraction(2, 3),
               ("g2", 2): Fraction(1, 6)}


@pytest.mark.parametrize("kind,n", list(FIBER_FIRST))
def test_fiber_first_eigenvalue_is_one(kind, n):
    # Each fiber has first eigenvalue 1 under its own form; under the
    # form of G, which the canonical variation puts on it, it is smaller.
    fib = build_fibration(FibrationFamily(kind, n))
    entries = fiber_spectrum(fib, Fraction(2))
    assert entries[0].value == FIBER_FIRST[kind, n] == fib.phi1


def test_fiber_spectrum_g2_is_a_sum_set():
    fib = build_fibration(FibrationFamily("g2", 2))
    values = [e.value for e in fiber_spectrum(fib, Fraction(4))]
    # Two round spheres at G's scale, i(i+1)/12 on the short-root factor
    # and j(j+1)/4 on the long-root one, with zero allowed on either.
    expected = sorted({Fraction(i * (i + 1), 12) + Fraction(j * (j + 1), 4)
                       for i in range(7) for j in range(4)} - {0})
    assert values == [v for v in expected if v <= 4]
    assert values[:7] == [Fraction(1, 6), Fraction(1, 2), Fraction(2, 3),
                          1, Fraction(3, 2), Fraction(5, 3), 2]


@pytest.mark.parametrize("kind,n,values", [
    ("so-odd", 2, [Fraction(2, 3), Fraction(4, 3), 2]),
    ("su", 2, [Fraction(2, 3), 2]),
    # The A2 flag values 1, 2, 8/3, 4, 5 times 3/8.
    ("sp", 3, [Fraction(3, 8), Fraction(3, 4), 1, Fraction(3, 2),
               Fraction(15, 8)])])
def test_fiber_spectrum_values_under_the_form_of_g(kind, n, values):
    fib = build_fibration(FibrationFamily(kind, n))
    assert [e.value for e in fiber_spectrum(fib, 2)] == values
    # A fiber line, like a flag line, carries no multiplicity.
    assert all(e.mult is None for e in fiber_spectrum(fib, 2))


def test_fiber_spectrum_rejects_bad_cutoff():
    fib = build_fibration(FibrationFamily("su", 2))
    with pytest.raises(ValueError):
        fiber_spectrum(fib, 0)


# -- the enumerator against brute-force oracles ---------------------------

ORACLE_CUTOFF = 4
CUTOFFS = st.fractions(min_value=Fraction(1, 4), max_value=ORACLE_CUTOFF,
                       max_denominator=12)


def _class_one_data(source):
    """Simple roots, positive roots and CK scale: G's for a root family,
    the fiber's at G's scale for a fibration family."""
    if isinstance(source, FamilyTag):
        rs = build_root_system(source)
        return rs.simple_roots, rs.positive_roots, rs.scale
    fib = build_fibration(source)
    return (fib.fiber_simple_roots, fib.vertical_roots,
            fib.root_system.scale)


def _class_one_spectrum(source, cutoff):
    if isinstance(source, FamilyTag):
        return flag_spectrum(source, cutoff)
    return fiber_spectrum(build_fibration(source), cutoff)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _class_one_box(simple, scale, cutoff):
    """Every p >= 0, not all zero, with scale * sum p_i |alpha_i|^2 <= cutoff.

    A dominant lam = sum p_i alpha_i has <lam, lam> >= 0, and
    <alpha_i, 2 delta> = |alpha_i|^2, so every class-one value up to
    the cutoff has its p in this box.
    """
    norms = [_dot(alpha, alpha) for alpha in simple]
    budget = cutoff / scale

    def fill(k, left):
        if k == len(norms):
            yield ()
            return
        p = 0
        while p * norms[k] <= left:
            for rest in fill(k + 1, left - p * norms[k]):
                yield (p,) + rest
            p += 1

    return (p for p in fill(0, budget) if any(p))


def _source_id(source):
    if isinstance(source, FamilyTag):
        return "{}{}".format(source.kind, source.rank)
    return "fiber-{}-{}".format(source.kind, source.n)


@lru_cache(maxsize=None)
def _class_one_oracle(source):
    # Dominance and <lam, lam + 2 delta> straight from the roots, with
    # delta the half-sum of the given positive roots.
    simple, positive, scale = _class_one_data(source)
    two_delta = [sum(r[k] for r in positive) for k in range(len(simple[0]))]
    found = {}
    for p in _class_one_box(simple, scale, ORACLE_CUTOFF):
        lam = [sum(x * alpha[k] for x, alpha in zip(p, simple))
               for k in range(len(simple[0]))]
        if all(_dot(lam, alpha) >= 0 for alpha in simple):
            value = scale * _dot(lam, [x + d for x, d in zip(lam, two_delta)])
            if value <= ORACLE_CUTOFF:
                found.setdefault(value, []).append(p)
    return sorted((v, tuple(sorted(ps))) for v, ps in found.items())


@pytest.mark.parametrize("source", [FamilyTag("A", n) for n in range(1, 5)]
                         + [FamilyTag("B", n) for n in range(2, 5)]
                         + [FamilyTag("C", n) for n in (3, 4)]
                         + [FamilyTag("D", 4), FamilyTag("G2", 2)]
                         + [FibrationFamily("su", 3),
                            FibrationFamily("so-odd", 2),
                            FibrationFamily("so-odd", 4),
                            FibrationFamily("g2", 2)],
                         ids=_source_id)
@settings(max_examples=15, deadline=None)
@given(cutoff=CUTOFFS)
def test_flag_spectrum_matches_brute_force_box(source, cutoff):
    # Flags, and fibers under G's form: one class-one enumeration.
    expected = [(v, ps) for v, ps in _class_one_oracle(source) if v <= cutoff]
    got = [(e.value, e.label) for e in _class_one_spectrum(source, cutoff)]
    assert got == expected



@pytest.mark.parametrize("simple_roots,scale,family,count", [
    (((1, -1), (0, 2)), Fraction(1, 12), FamilyTag("B", 2), 19),
    (((1, -1, 0), (0, 1, -1), (0, 1, 1)), Fraction(1, 8), FamilyTag("A", 3),
     21)], ids=["C2-B2", "D3-A3"])
def test_isomorphic_root_systems_give_one_flag_spectrum(simple_roots, scale,
                                                        family, count):
    # C2 = B2 and D3 = A3, and G/T depends only on G: the same values in
    # other coordinates.  rootsys refuses C2 and D3, so their simple
    # roots and CK scales are written out here.
    got = [e.value for e in spectra._class_one_spectrum(
        simple_roots, scale, 10)]
    assert got == [e.value for e in flag_spectrum(family, 10)]
    assert len(got) == count


def _weyl_dims_by_reflection(simple_roots, labels):
    """Weyl dimensions of the weights sum p_i*alpha_i, p in ``labels``,
    from the positive roots alone: the simple roots closed under the
    simple reflections, in simple-root coordinates, keep the roots with
    no negative coordinate."""
    gram = gram_matrix(simple_roots)
    rank = len(gram)

    def form(x, y):
        return sum(x[i] * gram[i][j] * y[j]
                   for i in range(rank) for j in range(rank))

    def reflect(c, i):
        k = Fraction(2 * sum(g * x for g, x in zip(gram[i], c)), gram[i][i])
        return tuple(x - k * (j == i) for j, x in enumerate(c))

    roots = {tuple(Fraction(int(i == j)) for j in range(rank))
             for i in range(rank)}
    frontier = list(roots)
    while frontier:
        c = frontier.pop()
        for i in range(rank):
            if (r := reflect(c, i)) not in roots:
                roots.add(r)
                frontier.append(r)
    positive = [c for c in roots if min(c) >= 0]
    delta = [sum(c[i] for c in positive) / 2 for i in range(rank)]
    return [prod(form([x + d for x, d in zip(p, delta)], alpha)
                 / form(delta, alpha) for alpha in positive)
            for p in labels]


@pytest.mark.parametrize("simple_roots,scale,family,weights,pairs", [
    (((1, -1), (0, 2)), Fraction(1, 12), FamilyTag("B", 2), 22, 22),
    (((1, -1, 0), (0, 1, -1), (0, 1, 1)), Fraction(1, 8), FamilyTag("A", 3),
     48, 31)], ids=["C2-B2", "D3-A3"])
def test_isomorphic_root_systems_give_one_weyl_dimension_multiset(
        simple_roots, scale, family, weights, pairs):
    # The isomorphism maps class-one weights to class-one weights with
    # the same value and the same irreducible, so the (value, dimension)
    # multisets agree.  C2's and D3's dimensions come from their own
    # positive roots; B2's and A3's from weyl_dim.
    mine = Counter()
    for e in spectra._class_one_spectrum(simple_roots, scale, 10):
        for dim in _weyl_dims_by_reflection(simple_roots, e.label):
            mine[e.value, dim] += 1
    gram = _simple_gram(family)
    theirs = Counter(
        (e.value, weyl_dim(family, tuple(
            2 * sum(g * x for g, x in zip(row, p)) // row[j]
            for j, row in enumerate(gram))))
        for e in flag_spectrum(family, 10) for p in e.label)
    assert mine == theirs
    assert sum(mine.values()) == weights and len(mine) == pairs

BASE_ORACLE_CUTOFF = 6


@lru_cache(maxsize=None)
def _base_oracle(fib_family):
    family = fib_family.root_family
    basis = kramer_basis(fib_family)
    rank = len(basis[0])
    tops = [BASE_ORACLE_CUTOFF
            / casimir_of_weight(family, ambient_weight(family, b))
            for b in basis]
    merged = {}
    for x in product(*(range(int(top) + 1) for top in tops)):
        if not any(x):
            continue
        coeffs = tuple(sum(xi * b[k] for xi, b in zip(x, basis))
                       for k in range(rank))
        value = casimir_of_weight(family, ambient_weight(family, coeffs))
        if value <= BASE_ORACLE_CUTOFF:
            bucket = merged.setdefault(value, [0, []])
            bucket[0] += weyl_dim(family, coeffs)
            bucket[1].append(x)
    return sorted((v, m, tuple(xs)) for v, (m, xs) in merged.items())


@pytest.mark.parametrize("fib_family", [
    FibrationFamily("su", 2), FibrationFamily("su", 3),
    FibrationFamily("so-odd", 2), FibrationFamily("so-odd", 4),
    FibrationFamily("sp", 3), FibrationFamily("sp", 4),
    FibrationFamily("sp", 5), FibrationFamily("so-even", 4),
    FibrationFamily("so-even", 5), FibrationFamily("so-even", 6),
    FibrationFamily("so-even", 7), FibrationFamily("g2", 2)],
    ids=lambda f: "{}-{}".format(f.kind, f.n))
@settings(max_examples=15, deadline=None)
@given(cutoff=st.fractions(min_value=Fraction(1, 4),
                           max_value=BASE_ORACLE_CUTOFF, max_denominator=12))
@example(cutoff=Fraction(BASE_ORACLE_CUTOFF))
def test_base_spectrum_matches_brute_force_box(fib_family, cutoff):
    expected = [row for row in _base_oracle(fib_family) if row[0] <= cutoff]
    got = [(e.value, e.mult, e.label)
           for e in base_spectrum(fib_family, cutoff)]
    assert got == expected


@pytest.mark.parametrize("kind", ["su", "so-odd", "sp", "so-even", "g2"])
def test_a_base_call_converts_the_generator_rows_once(monkeypatch, kind):
    calls = []
    real = spectra.kramer_basis

    def counting(fib_family):
        calls.append(fib_family)
        return real(fib_family)

    monkeypatch.setattr(spectra, "kramer_basis", counting)
    family = FibrationFamily(kind)
    spectra.base_spectrum(family, 4)
    assert len(calls) == 1
    spectra.spherical_multiple_above(family, 10)
    assert len(calls) == 2


@pytest.mark.parametrize("kind,n", [("su", 2), ("so-odd", 4), ("sp", 3),
                                    ("so-even", 5), ("g2", 2)])
def test_spherical_multiple_above_matches_the_loop(kind, n):
    # The closed form against trying k = 1, 2, ... in turn, at each of
    # the first 40 values of k*gen, just below it and just above it.
    family = FibrationFamily(kind, n)
    basis = kramer_basis(family)
    (quad, linear, factor), _ = inverse_base_form(family)

    def value(k):
        return factor * k * (k * quad[0][0] + linear[0])

    targets = [Fraction(-1), Fraction(0)] + [
        value(k) + d for k in range(1, 41)
        for d in (-factor / 3, 0, factor / 3)]
    for target in targets:
        k = least_multiple_above(value, target)
        assert spectra.spherical_multiple_above(family, target) == (
            value(k), tuple(k * c for c in basis[0]))


@pytest.mark.parametrize("kind,n", [("su", n) for n in range(2, 9)]
                         + [("so-odd", n) for n in (2, 4, 5, 6, 7, 8)])
def test_single_generator_bases_match_closed_forms(kind, n):
    # The projective space and the even sphere: q(q+n)/(n+1) and
    # q(q+2n-1)/(2(2n-1)), with their classical multiplicities.
    if kind == "su":
        def value(q):
            return Fraction(q * (q + n), n + 1)

        def mult(q):
            return cpn_multiplicity(n, q)
    else:
        def value(q):
            return Fraction(q * (q + 2 * n - 1), 2 * (2 * n - 1))

        def mult(q):
            return sphere_multiplicity(n, q)
    entries = base_spectrum(FibrationFamily(kind, n), value(6))
    assert [(e.value, e.mult, e.label) for e in entries] == [
        (value(q), mult(q), ((q,),)) for q in range(1, 7)]


# One walk at cutoff 1 finds mu1, and the fiber's walk checks phi1's
# closed form: the highest short root theta_s of a simple system is the
# least nonzero dominant weight in its root lattice (Stembridge 1998),
# and its Casimir is at most 1.

def _fibrations(top):
    """Every valid fibration up to rank ``top``, kind by kind."""
    return ([FibrationFamily(kind, n)
             for kind, low in (("su", 2), ("so-odd", 2), ("sp", 3),
                               ("so-even", 4))
             for n in range(low, top + 1) if (kind, n) != ("so-odd", 3)]
            + [FibrationFamily("g2", 2)])


def _highest_root_casimir(positive_roots, scale):
    """The planted control: theta, the highest root, in place of
    theta_s; its Casimir is the largest over all positive roots."""
    two_delta = [sum(col) for col in zip(*positive_roots)]
    return max(scale * sum(x * (x + d) for x, d in zip(r, two_delta))
               for r in positive_roots)


@pytest.mark.parametrize("family", COORDINATE_FAMILIES,
                         ids=lambda f: "{}{}".format(*f))
def test_flag_minimum_is_the_highest_short_root_casimir(family):
    rs = build_root_system(family)
    value = highest_short_root_casimir(rs.positive_roots, rs.scale)
    assert value == flag_minimum(family).value <= 1
    # Planted control: theta has Casimir 1, which is mu1 only where
    # every root is short.
    planted = _highest_root_casimir(rs.positive_roots, rs.scale)
    assert planted == 1
    simply_laced = family.kind in ("A", "D")
    assert (planted == flag_minimum(family).value) == simply_laced


@pytest.mark.parametrize("family", _fibrations(12),
                         ids=lambda f: "{}-{}".format(*f))
def test_phi1_is_the_least_fiber_factor_casimir(family):
    # Two oracles for the closed form: the fiber's class-one walk, and
    # the search for each factor's highest short root.
    fib = build_fibration(family)
    scale = fib.root_system.scale
    values = [highest_short_root_casimir(factor, scale)
              for factor in _fiber_factors(fib)]
    assert fib.phi1 == fiber_spectrum(fib, 1)[0].value == min(values) < 1


def test_dropping_the_short_g2_fiber_factor_misses_phi1():
    fib = build_fibration(FibrationFamily("g2", 2))
    factors = _fiber_factors(fib)
    assert len(factors) == 2
    short = min(factors, key=lambda f: sum(x * x for x in f[0]))
    scale = fib.root_system.scale
    kept = [highest_short_root_casimir(f, scale)
            for f in factors if f is not short]
    assert min(kept) != fib.phi1


# The fundamental weights of A1-8, B2-8, C3-8, D4-8 and G2, and the
# spherical generators of every valid fibration up to rank 8.
FORM_FAMILIES = ([FamilyTag("A", n) for n in range(1, 9)]
                 + [FamilyTag("B", n) for n in range(2, 9)]
                 + [FamilyTag("C", n) for n in range(3, 9)]
                 + [FamilyTag("D", n) for n in range(4, 9)]
                 + [FamilyTag("G2", 2)])
FORM_BASES = _fibrations(8)


def _walked_form(family):
    """The form (W, w, factor) that the flag's class-one walk hands
    ``_lattice_points``, read by a spy on one uncached walk at cutoff 1."""
    rs = build_root_system(family)
    return _walked_form_over(rs.simple_roots, rs.scale)


def _walked_form_over(simple_roots, scale):
    """The form of one uncached class-one walk at cutoff 1 over
    ``simple_roots``, read by a spy on ``_lattice_points``."""
    forms = []
    real = spectra._lattice_points

    def spy(form, cutoff, carried):
        forms.append(form)
        return real(form, cutoff, carried)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_lattice_points", spy)
        spectra._class_one_spectrum.__wrapped__(simple_roots, scale, 1)
    return forms[0]


def _form_inputs(family):
    """(G, generators, W): the flag's Gram matrix and fundamental-weight
    rows N, or the identity and the base's ambient spherical weights,
    and the W of the form that the walk reads, W = (g_j'G g_k)."""
    if isinstance(family, FibrationFamily):
        weights = family.spherical_weights
        unit = [[int(i == j) for j in range(len(weights[0]))]
                for i in range(len(weights[0]))]
        return unit, weights, _base_form(family)[0]
    gram = _simple_gram(family)
    return gram, _fundamental_coefficients(gram)[0], _walked_form(family)[0]


@pytest.mark.parametrize("family", FORM_FAMILIES + FORM_BASES,
                         ids=lambda f: "{}{}".format(*f))
def test_form_products_match_the_double_sum(family):
    gram, generators, quad = _form_inputs(family)
    assert quad == gram_products(gram, generators)


# G's simple roots on A1-12, B2-12, C3-12, D4-12 and G2, and the fiber's
# of every valid fibration up to rank 12, block-diagonal ones included.
IDENTITY_FAMILIES = ([FamilyTag("A", n) for n in range(1, 13)]
                     + [FamilyTag("B", n) for n in range(2, 13)]
                     + [FamilyTag("C", n) for n in range(3, 13)]
                     + [FamilyTag("D", n) for n in range(4, 13)]
                     + [FamilyTag("G2", 2)])
FIBERS = _fibrations(12)


def _fiber_gram(fib_family):
    return gram_matrix(build_fibration(fib_family).fiber_simple_roots)


def _half_diagonal_breaks(gram, coeffs, den):
    """Whether N G differs from den*diag(G_jj)/2, compared doubled."""
    return [[2 * sum(x * g for x, g in zip(row, col)) for col in zip(*gram)]
            for row in coeffs] != [[den * gram[j][j] if j == k else 0
                                    for k in range(len(gram))]
                                   for j in range(len(gram))]


@pytest.mark.parametrize("gram", [_simple_gram(f) for f in IDENTITY_FAMILIES]
                         + [_fiber_gram(f) for f in FIBERS],
                         ids=["{}{}".format(*f) for f in IDENTITY_FAMILIES]
                         + ["fiber-{}-{}".format(*f) for f in FIBERS])
def test_fundamental_coefficients_times_gram_is_den_half_diagonal(gram):
    # <omega_j, alpha_k> = delta_jk G_kk/2 with omega_j = N_j/den, the
    # identity that lets the class-one form read W off N alone.
    coeffs, den = _fundamental_coefficients(gram)
    assert not _half_diagonal_breaks(gram, coeffs, den)
    # Planted control: one entry of N one unit larger.
    planted = [list(row) for row in coeffs]
    planted[-1][0] += 1
    assert _half_diagonal_breaks(gram, planted, den)


@pytest.mark.parametrize("fib_family", FIBERS,
                         ids=lambda f: "{}-{}".format(*f))
def test_fiber_form_products_match_the_double_sum(fib_family):
    fib = build_fibration(fib_family)
    gram = _fiber_gram(fib_family)
    quad = _walked_form_over(fib.fiber_simple_roots,
                             fib.root_system.scale)[0]
    assert quad == gram_products(gram, _fundamental_coefficients(gram)[0])


def _scaled_base_form(family, square):
    """The base's form with W and w times ``square``, the factor over it."""
    quad, linear, factor = _base_form(family)
    return ([[square * x for x in row] for row in quad],
            [square * x for x in linear], factor / square)


@pytest.mark.parametrize("family", _fibrations(12),
                         ids=lambda f: "{}-{}".format(*f))
def test_ambient_base_form_is_the_inverse_form_over_den_squared(monkeypatch,
                                                                family):
    # The form read off the ambient weights against the one through G's
    # Gram inverse: W and w den**2 times smaller, the factor den**2
    # times larger, so every value is the same.
    oracle, den = inverse_base_form(family)
    assert _scaled_base_form(family, den * den) == oracle
    # Planted controls: 2*delta replaced by delta, or by the sum of the
    # simple roots, through the root system that the base form reads.
    rs = build_root_system(family.root_family)
    halves = tuple(tuple(Fraction(x, 2) for x in r) for r in rs.positive_roots)
    for roots in (halves, rs.simple_roots):
        planted = rs._replace(positive_roots=roots)
        monkeypatch.setattr(spectra, "build_root_system",
                            lambda _, planted=planted: planted)
        assert _scaled_base_form(family, den * den) != oracle


@pytest.mark.parametrize("family", _fibrations(12),
                         ids=lambda f: "{}-{}".format(*f))
def test_beta1_is_the_least_spherical_generator_casimir(family):
    # A second derivation of beta1: every other point of the base form
    # lies strictly above some generator's value, so the first base
    # value is the least scale*<lam_j, lam_j + 2*delta>, reached at
    # generators only.
    rs = build_root_system(family.root_family)
    two_delta = [sum(col) for col in zip(*rs.positive_roots)]
    weights = family.spherical_weights

    def casimir(lam):
        return rs.scale * sum(x * (x + d) for x, d in zip(lam, two_delta))

    values = [casimir(lam) for lam in weights]
    beta1 = min(values)
    first = base_spectrum(family, beta1)[0]
    assert first.value == beta1 == CATALOGUE[family.kind].beta1(family.n)
    assert all(sorted(x) == [0] * (len(x) - 1) + [1] for x in first.label)
    # Planted controls, where two generators can differ: the largest
    # generator value, and the value of the generators' sum.
    if len(weights) > 1:
        assert max(values) != first.value
        assert casimir([sum(col) for col in zip(*weights)]) != first.value


@pytest.mark.parametrize("kind", FAMILY_KEYS)
def test_the_base_path_inverts_no_gram_matrix(monkeypatch, kind):
    # Neither the base walk nor the decay witness reaches G's Gram
    # inverse; the flag's class-one walk, the positive control, does.
    grams = []
    real = spectra._fundamental_coefficients

    def spy(gram):
        grams.append(gram)
        return real(gram)

    monkeypatch.setattr(spectra, "_fundamental_coefficients", spy)
    monkeypatch.setattr(spectra, "_class_one_spectrum",
                        spectra._class_one_spectrum.__wrapped__)
    family = FibrationFamily(kind)
    spectra.base_spectrum(family, 4)
    spectra.spherical_multiple_above(family, 10)
    assert grams == []
    spectra.flag_spectrum(family.root_family, 1)
    assert grams == [_simple_gram(family.root_family)]


def _form_products(monkeypatch, build, family):
    """Integer products that ``build`` takes on the fundamental weights
    of ``family``, each counted through ``spectra.mul``."""
    gram = _simple_gram(family)
    _fundamental_coefficients(gram)
    count = [0]

    def counting_mul(x, y):
        count[0] += 1
        return x * y

    monkeypatch.setattr(spectra, "mul", counting_mul)
    build(family)
    monkeypatch.undo()
    return count[0]


def _row_product_form(family):
    """W as the rows N_j G first, then W_jk = (N_j G).N_k, O(r**3)
    products, each taken by ``spectra.mul``."""
    gram = _simple_gram(family)
    generators = _fundamental_coefficients(gram)[0]
    rows = [[sum(map(spectra.mul, g, col)) for col in zip(*gram)]
            for g in generators]
    return [[sum(map(spectra.mul, row, h)) for h in generators]
            for row in rows]


def _double_sum_form(family):
    """W with a fresh double sum per W_jk, the shape of
    ``oracles.gram_products``, its products taken by ``spectra.mul``."""
    gram = _simple_gram(family)
    generators = _fundamental_coefficients(gram)[0]
    return [[sum(map(spectra.mul, g,
                     [sum(map(spectra.mul, row, h)) for row in gram]))
             for h in generators] for g in generators]


def _growth(monkeypatch, build, kind, r):
    """Products at rank 2r over products at rank r."""
    return (_form_products(monkeypatch, build, FamilyTag(kind, 2 * r))
            / _form_products(monkeypatch, build, FamilyTag(kind, r)))


@pytest.mark.parametrize("kind,r", [("A", 8), ("C", 6), ("D", 6)])
def test_form_is_quadratic_in_the_rank(monkeypatch, kind, r):
    # O(r**2) products past the inverse: doubling the rank multiplies
    # them by 4, so by at most 5.  On A_r they are exactly 2r**2, r**2
    # for W read off N and r**2 for w; the walk at cutoff 1 takes none.
    # No timing is involved.
    assert _growth(monkeypatch, _walked_form, kind, r) <= 5
    if kind == "A":
        assert _form_products(monkeypatch, _walked_form,
                              FamilyTag(kind, r)) == 2 * r ** 2
    # Planted controls: the rows N.G then W, 2r**3 products on A_r,
    # grow by about 8, and the O(r**4) double sum by about 16.
    assert _growth(monkeypatch, _row_product_form, kind, r) > 5
    assert _growth(monkeypatch, _double_sum_form, kind, r) > 5


def test_lattice_points_rejects_a_non_monotone_form():
    # The simple roots are not dominant: the A2 Gram has -1 off the
    # diagonal, so the form in their coefficients is not monotone.
    with pytest.raises(ValueError):
        _lattice_points(_form(((2, -1), (-1, 2)), (2, 2), Fraction(1, 6)), 4,
                        ((0, 0), ((1, 0), (0, 1)), tuple))
    # A negative linear term alone is rejected too.
    with pytest.raises(ValueError):
        _lattice_points(_form(((2,),), (-2,), 1), 4, ((0,), ((1,),), tuple))


# -- catalogued-inconsistency reports -------------------------------------

@pytest.mark.parametrize("n", [3, 5])
def test_cn_first_eigenvalue_report_walks_once(monkeypatch, n):
    # On a cold walk cache the report walks C_n's class-one points up
    # to 1 once, and takes the Casimir minimum from that walk, which
    # flag_minimum then reads without walking again.
    spectra._class_one_spectrum.cache_clear()
    cutoffs = []
    real_walk = spectra._lattice_points

    def walk(*args):
        cutoffs.append(args[-2])
        return real_walk(*args)

    monkeypatch.setattr(spectra, "_lattice_points", walk)
    report = cn_first_eigenvalue_report(n)
    assert report["casimir_min"] == flag_minimum(FamilyTag("C", n)).value
    assert cutoffs == [1]


def test_cn_first_eigenvalue_report():
    for n in range(3, 11):
        rep = cn_first_eigenvalue_report(n)
        argmin = (1,) + (2,) * (n - 2) + (1,)
        assert rep["formula_min"] == 1
        assert rep["formula_argmin"] == argmin
        assert rep["casimir_min"] == Fraction(n, n + 1)
        assert rep["casimir_argmin"] == argmin
        assert rep["stated"] == Fraction(4 * n - 1, 4 * (n + 1))
        assert not rep["consistent"]
    assert cn_first_eigenvalue_report(3)["stated"] == Fraction(11, 16)
    assert cn_first_eigenvalue_report(5)["stated"] == Fraction(19, 24)


def test_bn_dominance_row_report():
    rep = bn_dominance_row_report(4)
    assert rep["witness"] == (1, 1, 1, 3)
    assert rep["catalogued_accepts"]
    assert not rep["dominant"]
    with pytest.raises(ValueError):
        bn_dominance_row_report(2)
