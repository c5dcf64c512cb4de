"""Tests for the exact rational plumbing: squarefree splits and
enclosures, and the stdlib-only runtime."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagvar.exact import float_from_bounds, squarefree_split
from test_surd import sqrt_bounds  # the Fraction oracle's enclosure

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_squarefree_split_small():
    assert squarefree_split(0) == (0, 0)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(340) == (2, 85)
    assert squarefree_split(4640) == (4, 290)
    assert squarefree_split(97) == (1, 97)


def test_squarefree_split_past_the_prime_sieve():
    # Radicands above 2**60 trial-divide past the sieve by odd numbers.
    q = 1048583  # the least prime above 2**20
    assert squarefree_split(q ** 3) == (q, q)
    assert squarefree_split(9 * (2 ** 61 - 1)) == (3, 2 ** 61 - 1)


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


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # Records are named tuples, so a query pays for neither module.
    code = ("import sys, flagvar.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


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

