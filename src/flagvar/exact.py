"""Exact integer and rational plumbing shared by the other modules.

Everything here works over Python integers and ``fractions.Fraction``:
squarefree splits by trial division over a cached prime sieve, clearing
denominators, and the float presentation of an exact enclosure.  Linear
algebra on Gram matrices is fraction-free and lives with its one user,
``spectra``.  Floats never participate in any decision; they only
appear as presentation values, each from one correctly rounded int/int
or Fraction division.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import isqrt, lcm

# Trial division takes its primes from a sieve up to this bound, and
# goes on over odd numbers past it.
_SIEVE_CAP = 1 << 20


@lru_cache(maxsize=None)
def _primes_below(limit):
    """The primes below ``limit``, a power of two, by Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit, i)))
    return list(compress(range(limit), flags))


@lru_cache(maxsize=None)
def squarefree_split(n):
    """Split a nonnegative integer as n = s*s*d with d squarefree.

    Returns (s, d); n = 0 gives (0, 0) and a perfect square d = 1.
    Trial division by primes runs while p**3 <= the shrinking cofactor.
    After it every prime factor of the cofactor exceeds the cofactor's
    cube root, so the cofactor is 1, q, q*r or q**2, and ``isqrt`` tells
    the square apart.  Checks re-solve the same instants, hence the cache.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 0
    bound = 1 << -(-n.bit_length() // 3)  # a power of two >= n**(1/3)
    divisors = _primes_below(min(max(bound, 1024), _SIEVE_CAP))
    if bound > _SIEVE_CAP:
        divisors = chain(divisors, range(_SIEVE_CAP + 1, bound + 1, 2))
    s = d = 1
    for p in divisors:
        if p * p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    r = isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n


def common_denominator(values):
    """(numerators, den): integers with values[i] == numerators[i]/den,
    where den > 0 is the least common denominator."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def float_from_bounds(lo, hi, den=1):
    """Midpoint float of the enclosure [lo/den, hi/den] plus a certified
    error bound.

    lo and hi are Fractions, or integers over a positive integer den.
    The bound covers both the enclosure width and the rounding of the
    midpoint (correctly rounded, under half an ulp, padded to a full ulp
    here).
    """
    val = float((lo + hi) / (2 * den))
    ulp = abs(val) * 2.0 ** -52 + 2.0 ** -1074
    err = float((hi - lo) / den) / 2 + ulp
    return val, err
