"""Tests for the five vertical/horizontal root partitions."""

from fractions import Fraction
from itertools import combinations

import pytest

from flagvar.fibration import FAMILY_KEYS, FibrationFamily, build_fibration

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
    with pytest.raises(ValueError):
        FibrationFamily("su", 1)
    with pytest.raises(ValueError):
        FibrationFamily("so-odd", 3)
    with pytest.raises(ValueError):
        FibrationFamily("so-odd", 1)
    with pytest.raises(ValueError):
        FibrationFamily("sp", 2)
    with pytest.raises(ValueError):
        FibrationFamily("so-even", 3)
    with pytest.raises(ValueError):
        FibrationFamily("g2", 3)
    with pytest.raises(ValueError):
        FibrationFamily("sl", 2)


@pytest.mark.parametrize("kind,n,nv,nh", PARTITION)
def test_partition_sizes_and_dimensions(kind, n, nv, nh):
    fib = build_fibration(FibrationFamily(kind, n))
    assert len(fib.vertical_roots) == nv
    assert len(fib.horizontal_roots) == nh
    assert fib.dim_fiber == 2 * nv
    assert fib.dim_base == 2 * nh
    assert fib.m_total == fib.dim_fiber + fib.dim_base
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
    assert fib.dim_fiber == 4
    assert fib.dim_base == 4
    assert fib.base_id == "S^4"


def test_base_and_fiber_ids():
    fib = build_fibration(FibrationFamily("su", 2))
    assert fib.base_id == "CP^2"
    assert fib.fiber_id == "SU(2)/T^1"
    fib = build_fibration(FibrationFamily("sp", 3))
    assert fib.base_id == "Sp(3)/U(3)"
    fib = build_fibration(FibrationFamily("g2", 2))
    assert fib.base_id == "G2/SO(4)"
    assert fib.fiber_id == "S^2xS^2"


def test_labels():
    assert FibrationFamily("su", 2).label == "SU(3)/T^2"
    assert FibrationFamily("so-odd", 2).label == "SO(5)/T^2"
    assert FibrationFamily("so-even", 4).label == "SO(8)/T^4"
    assert FibrationFamily("g2", 2).label == "G2/T"


def test_root_family_mapping():
    assert FibrationFamily("su", 3).root_family.kind == "A"
    assert FibrationFamily("so-odd", 2).root_family.kind == "B"
    assert FibrationFamily("sp", 3).root_family.kind == "C"
    assert FibrationFamily("so-even", 4).root_family.kind == "D"
    assert FibrationFamily("g2", 2).root_family.kind == "G2"


def test_phi1_validation_and_default():
    fib = build_fibration(FibrationFamily("su", 2))
    assert fib.phi1 == 1
    fib = build_fibration(FibrationFamily("su", 2), phi1=Fraction(3, 2))
    assert fib.phi1 == Fraction(3, 2)
    with pytest.raises(ValueError):
        build_fibration(FibrationFamily("su", 2), phi1=0)


def test_g2_vertical_roots_are_the_two_middle_ones():
    fib = build_fibration(FibrationFamily("g2", 2))
    # a + b and 3a + b, with a the short and b the long simple root.
    assert set(fib.vertical_roots) == {(1, -1, 0), (1, 1, -2)}
