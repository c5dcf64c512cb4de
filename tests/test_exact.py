"""Tests for the exact rational plumbing: squarefree splits,
enclosures, Sturm counts and linear solving, and the stdlib-only
runtime."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagvar.exact import (count_roots_open, deflate_zero_roots,
                           float_from_bounds, poly_deriv, poly_eval,
                           poly_rem, poly_trim, solve_linear, sqrt_bounds,
                           squarefree_split, sturm_chain)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_squarefree_split_small():
    assert squarefree_split(0) == (0, 0)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(340) == (2, 85)
    assert squarefree_split(4640) == (4, 290)
    assert squarefree_split(97) == (1, 97)


def test_squarefree_split_rejects_negative():
    with pytest.raises(ValueError):
        squarefree_split(-1)


@given(st.integers(min_value=1, max_value=10**6))
def test_squarefree_split_reassembles(n):
    s, d = squarefree_split(n)
    assert s * s * d == n
    # d is squarefree: no prime square divides it.
    p = 2
    while p * p <= d:
        assert d % (p * p) != 0
        p += 1


def _split_by_factorint(n):
    factorint = pytest.importorskip("sympy").factorint
    s = d = 1
    for prime, exp in factorint(n).items():
        s *= prime ** (exp // 2)
        d *= prime ** (exp % 2)
    return s, d


def test_squarefree_split_matches_factorint_exhaustively():
    for n in range(1, 20001):
        assert squarefree_split(n) == _split_by_factorint(n)


@given(st.integers(min_value=1, max_value=2**40 - 1))
def test_squarefree_split_matches_factorint_below_2_40(n):
    assert squarefree_split(n) == _split_by_factorint(n)


@given(st.integers(min_value=1, max_value=2**20),
       st.integers(min_value=1, max_value=2**20))
def test_squarefree_split_of_square_times_squarefree(s, m):
    # Strip m to its squarefree part d first; s*s*d then splits as (s, d).
    _, d = _split_by_factorint(m)
    assert squarefree_split(s * s * d) == (s, d)


def test_import_needs_no_sympy():
    code = ("import sys; sys.modules['sympy'] = None; "
            "import flagvar.cli; print('ok')")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


@given(st.fractions(min_value=0, max_value=10**6))
def test_sqrt_bounds_enclose(x):
    lo, hi = sqrt_bounds(x, bits=40)
    assert lo * lo <= x <= hi * hi
    assert hi - lo <= Fraction(1, 2**40)


def test_sqrt_bounds_exact_cases():
    assert sqrt_bounds(Fraction(0)) == (0, 0)
    lo, hi = sqrt_bounds(Fraction(4), bits=30)
    assert lo <= 2 <= hi


def test_float_from_bounds_error_covers_width():
    val, err = float_from_bounds(Fraction(1, 3), Fraction(2, 3))
    assert abs(val - 0.5) <= err


def test_poly_helpers():
    p = [Fraction(-2), Fraction(0), Fraction(1)]  # x**2 - 2
    assert poly_eval(p, Fraction(3)) == 7
    assert poly_deriv(p) == [Fraction(0), Fraction(2)]
    assert poly_trim([Fraction(1), Fraction(0), Fraction(0)]) == [Fraction(1)]
    assert poly_rem([Fraction(-2), Fraction(0), Fraction(1)],
                    [Fraction(-1), Fraction(1)]) == [Fraction(-1)]


def test_sturm_chain_counts_roots():
    # (x - 1)(x - 2) = x**2 - 3x + 2 has both roots in (0, 3).
    p = [Fraction(2), Fraction(-3), Fraction(1)]
    assert count_roots_open(p, Fraction(0), Fraction(3)) == 2
    assert count_roots_open(p, Fraction(0), Fraction(3, 2)) == 1
    assert count_roots_open(p, Fraction(5, 2), Fraction(3)) == 0


def test_count_roots_open_rejects_root_endpoint():
    p = [Fraction(2), Fraction(-3), Fraction(1)]
    with pytest.raises(ValueError):
        count_roots_open(p, Fraction(1), Fraction(3))
    with pytest.raises(ValueError):
        count_roots_open([], Fraction(0), Fraction(1))


def test_sturm_chain_handles_constant():
    assert sturm_chain([Fraction(5)]) == [[Fraction(5)]]


def test_deflate_zero_roots():
    reduced, k = deflate_zero_roots([Fraction(0), Fraction(0), Fraction(3)])
    assert reduced == [Fraction(3)]
    assert k == 2
    reduced, k = deflate_zero_roots([Fraction(1), Fraction(2)])
    assert k == 0


def test_solve_linear_known_system():
    sol = solve_linear([[2, 1], [1, 3]], [5, 10])
    assert sol == [Fraction(1), Fraction(3)]


def test_solve_linear_rejects_singular():
    with pytest.raises(ValueError):
        solve_linear([[1, 2], [2, 4]], [1, 1])
