"""Exact rational plumbing shared by the other modules.

Everything here works over ``fractions.Fraction`` and Python integers:
squarefree splits by trial division, certified square-root enclosures
built on ``math.isqrt``, and dense Gaussian elimination.  Floats never
participate in any decision; they only appear as presentation values
derived from rational enclosures.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt


@lru_cache(maxsize=None)
def squarefree_split(n):
    """Split a nonnegative integer as n = s*s*d with d squarefree.

    Returns (s, d); n = 0 gives (0, 0) and a perfect square d = 1.
    Trial division runs while p**3 <= the shrinking cofactor.  After it
    every prime factor of the cofactor exceeds the cofactor's cube root,
    so the cofactor is 1, q, q*r or q**2, and ``isqrt`` tells the square
    apart.  Surd arithmetic re-splits the same radicands over and over,
    hence the cache.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 0
    s = d = 1
    p = 2
    while p * p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
        p += 1 if p == 2 else 2
    r = isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n


def sqrt_bounds(x, bits=60):
    """Rational enclosure of sqrt(x) for a nonnegative Fraction x.

    Returns (lo, hi) with lo**2 <= x <= hi**2 and hi - lo <= 2**-bits.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), Fraction(0)
    scale = 1 << bits
    m = (x.numerator * scale * scale) // x.denominator
    root = isqrt(m)
    lo = Fraction(root, scale)
    hi = Fraction(root + 1, scale)
    return lo, hi


def float_from_bounds(lo, hi):
    """Midpoint float of a rational enclosure plus a certified error bound.

    The bound covers both the enclosure width and the rounding of the
    Fraction-to-float conversion (correctly rounded, under half an ulp,
    padded to a full ulp here).
    """
    mid = (lo + hi) / 2
    val = float(mid)
    ulp = abs(val) * 2.0 ** -52 + 2.0 ** -1074
    err = float(hi - lo) / 2 + ulp
    return val, err


# ---------------------------------------------------------------------------
# Dense linear algebra over Fraction, plenty for rank <= 8 systems.

def solve_linear(matrix, rhs):
    """Solve matrix @ x = rhs exactly; matrix must be square invertible."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]
