"""Tests for the five vertical/horizontal root partitions."""

from fractions import Fraction
from itertools import combinations

import pytest

from flagvar import curvature, fibration, spectra
from flagvar.curvature import ScalPoly
from flagvar.fibration import FAMILY_KEYS, FibrationFamily, build_fibration
from flagvar.rootsys import FamilyTag, build_root_system
from flagvar.variation import figure_series, gap_certificate
from oracles import (_ambient_fundamental_weights, fundamental_coefficients,
                     pair_sum_split, solve_linear, solved_grades,
                     strongly_orthogonal_sums)

# (kind, n) -> (#vertical, #horizontal)
PARTITION = [
    ("su", 2, 1, 2),
    ("su", 4, 6, 4),
    ("so-odd", 2, 2, 2),
    ("so-odd", 4, 12, 4),
    ("sp", 3, 3, 6),
    ("sp", 4, 6, 10),
    ("so-even", 4, 6, 6),
    ("so-even", 5, 10, 10),
    ("g2", 2, 2, 4),
]


def test_family_keys():
    assert FAMILY_KEYS == ("su", "so-odd", "sp", "so-even", "g2")


def test_validity_constraints():
    for kind, n, message in [
            ("su", 1, "su requires n >= 2"),
            ("so-odd", 3, "so-odd requires n >= 2 with n = 3 excluded"),
            ("so-odd", 1, "so-odd requires n >= 2 with n = 3 excluded"),
            ("sp", 2, "sp requires n >= 3"),
            ("so-even", 3, "so-even requires n >= 4"),
            ("g2", 3, "g2 takes no rank parameter"),
            ("sl", 2, "unknown fibration family 'sl'")]:
        with pytest.raises(ValueError) as exc:
            FibrationFamily(kind, n)
        assert str(exc.value) == message


def test_default_rank_is_the_smallest_valid_one():
    smallest = {"su": 2, "so-odd": 2, "sp": 3, "so-even": 4, "g2": 2}
    for kind, n in smallest.items():
        assert FibrationFamily(kind) == FibrationFamily(kind, n)
        build_fibration(FibrationFamily(kind))


@pytest.mark.parametrize("kind,n,nv,nh", PARTITION)
def test_partition_sizes_and_dimensions(kind, n, nv, nh):
    fib = build_fibration(FibrationFamily(kind, n))
    assert len(fib.vertical_roots) == nv
    assert len(fib.horizontal_roots) == nh
    dim_fiber, dim_base = (2 * len(fib.vertical_roots),
                           2 * len(fib.horizontal_roots))
    assert dim_fiber == 2 * nv
    assert dim_base == 2 * nh
    assert fib.m_total == dim_fiber + dim_base
    assert set(fib.vertical_roots).isdisjoint(fib.horizontal_roots)
    assert (set(fib.vertical_roots) | set(fib.horizontal_roots)
            == set(fib.root_system.positive_roots))


def vertical_closed_under_addition(fib):
    """True when the vertical set is a closed subsystem of positives."""
    vertical = set(fib.vertical_roots)
    positives = set(fib.root_system.positive_roots)
    for a, b in combinations(vertical, 2):
        s = tuple(x + y for x, y in zip(a, b))
        if s in positives and s not in vertical:
            return False
    return True


@pytest.mark.parametrize("kind,n,nv,nh", PARTITION)
def test_vertical_set_closed(kind, n, nv, nh):
    fib = build_fibration(FibrationFamily(kind, n))
    assert vertical_closed_under_addition(fib)


def test_so5_dims():
    fib = build_fibration(FibrationFamily("so-odd", 2))
    assert 2 * len(fib.vertical_roots) == 4
    assert 2 * len(fib.horizontal_roots) == 4
    assert fib.family.names[1] == "S^4"


def test_base_and_fiber_ids():
    _, base, fiber = FibrationFamily("su", 2).names
    assert base == "CP^2"
    assert fiber == "SU(2)/T^1"
    assert FibrationFamily("sp", 3).names[1] == "Sp(3)/U(3)"
    _, base, fiber = FibrationFamily("g2", 2).names
    assert base == "G2/SO(4)"
    assert fiber == "S^2xS^2"


def test_labels():
    assert FibrationFamily("su", 2).names[0] == "SU(3)/T^2"
    assert FibrationFamily("so-odd", 2).names[0] == "SO(5)/T^2"
    assert FibrationFamily("so-even", 4).names[0] == "SO(8)/T^4"
    assert FibrationFamily("g2", 2).names[0] == "G2/T"


def test_root_family_mapping():
    assert FibrationFamily("su", 3).root_family.kind == "A"
    assert FibrationFamily("so-odd", 2).root_family.kind == "B"
    assert FibrationFamily("sp", 3).root_family.kind == "C"
    assert FibrationFamily("so-even", 4).root_family.kind == "D"
    assert FibrationFamily("g2", 2).root_family.kind == "G2"


# -- the spherical generators, derived a second way ---------------------

GENERATOR_CASES = ([("su", n) for n in range(2, 13)]
                   + [("so-odd", n) for n in (2, *range(4, 13))]
                   + [("sp", n) for n in range(3, 13)]
                   + [("so-even", n) for n in range(4, 13)])


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def rows_are_greedy_sums(family):
    """The ``_KINDS`` rows are the strongly orthogonal partial sums, in
    order."""
    return (list(family.spherical_weights)
            == strongly_orthogonal_sums(build_fibration(family)))


def rows_are_class_one(family):
    """Every row lies in the root lattice, as a spherical weight of G/H
    with T in H must: its simple-root coefficients sum_j c_j F_j are
    integers, c_j = 2<lam, alpha_j>/<alpha_j, alpha_j> and F_j the
    Fraction coefficients of omega_j."""
    simple = build_root_system(family.root_family).simple_roots
    omegas = fundamental_coefficients([[_dot(a, b) for b in simple]
                                       for a in simple])
    return all(
        sum(Fraction(2 * _dot(lam, a), _dot(a, a)) * omega[i]
            for a, omega in zip(simple, omegas)).denominator == 1
        for lam in family.spherical_weights for i in range(len(simple)))


@pytest.mark.parametrize("kind,n", GENERATOR_CASES)
def test_spherical_generators_are_strongly_orthogonal_sums(kind, n):
    family = FibrationFamily(kind, n)
    assert rows_are_greedy_sums(family)
    assert rows_are_class_one(family)


def test_g2_generators_are_twice_the_long_then_the_short_weight():
    # G2/SO(4) is the split form: there the greedy sums are not dominant.
    family = FibrationFamily("g2")
    short, long = _ambient_fundamental_weights(family.root_family)
    assert family.spherical_weights == tuple(
        tuple(2 * x for x in w) for w in (long, short))
    assert rows_are_class_one(family)
    assert not rows_are_greedy_sums(family)


def test_a_planted_odd_so_even_row_fails_both_checks(monkeypatch):
    # e_1, e_1 + e_2 + e_3, ...: dominant, so kramer_basis accepts the
    # row, but off the root lattice and not the strongly orthogonal sums.
    root, low, names, _ = fibration._KINDS["so-even"]
    monkeypatch.setitem(fibration._KINDS, "so-even", (
        root, low, names,
        lambda n: [(1,) * k + (0,) * (n - k) for k in range(1, n + 1, 2)]))
    for n in (4, 5, 6):
        family = FibrationFamily("so-even", n)
        assert len(spectra.kramer_basis(family)) == (n + 1) // 2
        assert not rows_are_greedy_sums(family)
        assert not rows_are_class_one(family)


# -- the partition and the fiber's simple roots, found by search ---------

@pytest.mark.parametrize("kind,n", GENERATOR_CASES + [("g2", 2)])
def test_partition_and_fiber_simple_roots_match_the_pair_sum_search(kind, n):
    family = FibrationFamily(kind, n)
    fib = build_fibration(family)
    assert (fib.vertical_roots, fib.horizontal_roots,
            fib.fiber_simple_roots) == pair_sum_split(family)
    # G's simple roots but the last, and one root with k_n = 2 where the
    # highest root has k_n = 2 (so-odd, g2), none elsewhere.
    grades = solved_grades(family)
    extra = [r for r in fib.fiber_simple_roots if grades[r] == 2]
    assert len(extra) == (kind in ("so-odd", "g2"))
    assert (set(fib.fiber_simple_roots) - set(extra)
            == set(fib.root_system.simple_roots[:-1]))


def test_records_are_validated_immutable_named_tuples():
    # Validation of FamilyTag and FibrationFamily arguments is tested with
    # their messages elsewhere; a keyword argument is validated too.
    with pytest.raises(ValueError):
        ScalPoly(Fraction(1), Fraction(1), Fraction(1), d=0)
    assert FibrationFamily("sp").n == 3
    assert FibrationFamily(kind="g2") == ("g2", 2)
    assert repr(FamilyTag("A", 2)) == "FamilyTag(kind='A', rank=2)"
    fib = build_fibration(FibrationFamily("su", 2))
    for record, name in ((FamilyTag("A", 2), "rank"),
                         (FibrationFamily("su", 2), "n"),
                         (ScalPoly(1, 2, 3, 4), "d"), (fib, "m_total"),
                         (fib.root_system, "simple_roots")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_phi1_validation_and_default():
    fib = build_fibration(FibrationFamily("su", 2))
    assert fib.phi1 == Fraction(2, 3)
    fib = build_fibration(FibrationFamily("su", 2), phi1=Fraction(3, 2))
    assert fib.phi1 == Fraction(3, 2)
    with pytest.raises(ValueError):
        build_fibration(FibrationFamily("su", 2), phi1=0)


def test_g2_vertical_roots_are_a_and_3a_plus_2b():
    fib = build_fibration(FibrationFamily("g2", 2))
    # The roots with even coefficient on b, a the short and b the long
    # simple root.
    assert set(fib.vertical_roots) == {(0, 1, -1), (2, -1, -1)}


# The acceptance CASES, and phi1 by hand: the first class-one Casimir of
# the fiber under G's form, B_G restricted to the fiber.
PHI1_CASES = ([("su", n) for n in range(2, 9)]
              + [("so-odd", n) for n in (2, 4, 5, 6, 7, 8)]
              + [("sp", n) for n in range(3, 9)]
              + [("so-even", n) for n in range(4, 9)]
              + [("g2", 2)])

PHI1 = {
    # SU(n)/T at the A_n scale: the highest root of A_{n-1}.
    "su": lambda n: Fraction(n, n + 1),
    # SO(4)/T = S^2 x S^2 at n=2, else SO(2n)/T, at the B_n scale.
    "so-odd": lambda n: (Fraction(2, 3) if n == 2
                         else Fraction(2 * n - 2, 2 * n - 1)),
    # SU(n)/T on the short roots e_i - e_j of C_n.
    "sp": lambda n: Fraction(n, 2 * (n + 1)),
    "so-even": lambda n: Fraction(n, 2 * (n - 1)),
    # The short vertical root alone, i(i+1)/12 at i = 1.
    "g2": lambda n: Fraction(1, 6),
}

FIBER_RANK = {"su": lambda n: n - 1,
              "so-odd": lambda n: n,
              "sp": lambda n: n - 1,
              "so-even": lambda n: n - 1,
              "g2": lambda n: 2}


@pytest.mark.parametrize("kind,n", PHI1_CASES)
def test_phi1_default_matches_the_hand_formula(kind, n):
    assert build_fibration(FibrationFamily(kind, n)).phi1 == PHI1[kind](n)


@pytest.mark.parametrize("kind,n", PHI1_CASES)
def test_fiber_simple_roots_are_a_simple_system(kind, n):
    fib = build_fibration(FibrationFamily(kind, n))
    simple = fib.fiber_simple_roots
    assert len(simple) == FIBER_RANK[kind](n)
    assert set(simple) <= set(fib.vertical_roots)
    # Distinct simple roots meet at an obtuse or right angle.
    for a, b in combinations(simple, 2):
        assert sum(x * y for x, y in zip(a, b)) <= 0
    # Every vertical root is a non-negative integer combination of them:
    # solve the Gram system for its coefficients, then rebuild the root.
    gram = [[_dot(a, b) for b in simple] for a in simple]
    for root in fib.vertical_roots:
        coeffs = solve_linear(gram, [_dot(a, root) for a in simple])
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)
        assert tuple(sum(c * a[i] for c, a in zip(coeffs, simple))
                     for i in range(len(root))) == root


def fiber_sweeps(monkeypatch, fiber_simple_roots):
    """Record the cutoff of every class-one sweep over
    ``fiber_simple_roots`` from now on."""
    sweeps = []
    real = spectra._class_one_spectrum

    def recording(simple_roots, scale, cutoff):
        if simple_roots == fiber_simple_roots:
            sweeps.append(cutoff)
        return real(simple_roots, scale, cutoff)

    monkeypatch.setattr(spectra, "_class_one_spectrum", recording)
    return sweeps


def casimir_reads(monkeypatch):
    """Record the rank of every adjoint Casimir ``curvature`` reads from
    now on: one per fiber factor each time the factors are grouped."""
    reads = []
    real = curvature.adjoint_casimir

    def recording(roots, rank):
        reads.append(rank)
        return real(roots, rank)

    monkeypatch.setattr(curvature, "adjoint_casimir", recording)
    return reads


def test_phi1_is_enumerated_once_and_only_when_read(monkeypatch):
    # Derived on first read, from the one D_4 factor of the fiber, then
    # cached, and scal(t) reads the same factors; a phi1 given to
    # build_fibration derives nothing.
    reads = casimir_reads(monkeypatch)
    fib = build_fibration(FibrationFamily("so-odd", 4))
    assert reads == []
    assert fib.phi1 == Fraction(6, 7)
    assert reads == [4]
    assert fib.phi1 == Fraction(6, 7)
    assert fib.scal.a > 0
    assert reads == [4]
    given = build_fibration(FibrationFamily("so-odd", 4), phi1=Fraction(1))
    assert given.phi1 == 1
    assert reads == [4]


# Every kind at two ranks (g2 has one).
NO_WALK = [("su", 2), ("su", 4), ("so-odd", 2), ("so-odd", 4), ("sp", 3),
           ("sp", 4), ("so-even", 4), ("so-even", 5), ("g2", 2)]


@pytest.mark.parametrize("kind,n", NO_WALK)
def test_phi1_and_scal_walk_nothing_over_the_fiber(monkeypatch, kind, n):
    fib = build_fibration(FibrationFamily(kind, n))
    sweeps = fiber_sweeps(monkeypatch, fib.fiber_simple_roots)
    assert fib.phi1 > 0 and fib.scal.a > 0
    assert gap_certificate(fib)["phi1"] == fib.phi1
    assert sweeps == []
    # Positive control: the figure's fiber curves still walk the fiber,
    # from cutoff 1 up.
    figure_series(fib, Fraction(1, 5), Fraction(1))
    assert sweeps and sweeps[0] == 1
