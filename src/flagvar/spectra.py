"""Laplacian spectra: flag totals, symmetric bases, and fibers.

Every eigenvalue here is a Casimir value <lam, lam + 2*delta> of a
dominant weight lam = sum a_j g_j, with integers a_j >= 0 not all zero,
over a list of dominant generators g: the fundamental weights for the
flag and the fiber, keeping only lam in the root lattice (the class-one
weights), and the spherical generators for the base.  The flag and the
fiber differ only in their simple roots, G's or the fiber's (a product
fiber is one block-diagonal Gram matrix), and both are valued at G's CK
scale, which the canonical variation puts on the fiber.  Dominant
weights have pairwise non-negative inner products and non-negative
<g, 2*delta>, so once denominators are cleared the value is an integer form
a'Wa + w.a with W and w entrywise non-negative.  That form never
decreases in any coordinate: a prefix with a zero tail is an exact lower
bound, and one enumerator that stops each coordinate at its first value
over the cutoff finds every weight under it.  Base multiplicities are
Weyl dimensions.  The catalogued eigenvalue statements these are
compared with are in ``catalog``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import floor, lcm, prod

from .exact import solve_linear
from .rootsys import build_root_system, ck_inner


@dataclass(frozen=True)
class SpectrumEntry:
    """One spectral line: exact value, multiplicity, origin, label.

    Flag totals and fiber entries carry mult = 1 with mult_known False:
    their true multiplicities are never needed downstream, only base
    multiplicities feed the Morse index.
    """

    value: Fraction
    mult: int
    origin: str
    label: tuple
    mult_known: bool = True


@lru_cache(maxsize=None)
def _root_system(family):
    return build_root_system(family)


def _combine(coeffs, vectors):
    """The vector sum c_j*v_j."""
    return tuple(sum(c * v[k] for c, v in zip(coeffs, vectors))
                 for k in range(len(vectors[0])))


@lru_cache(maxsize=None)
def _gram(roots):
    """Integer Gram matrix of ``roots`` under the dot product."""
    return tuple(tuple(sum(x * y for x, y in zip(a, b)) for b in roots)
                 for a in roots)


def _simple_gram(family):
    """Integer Gram matrix G of the simple roots of ``family``."""
    return _gram(_root_system(family).simple_roots)


@lru_cache(maxsize=None)
def _fundamental_coefficients(gram):
    """Simple-root coefficients of each fundamental weight omega_i of the
    simple roots with Gram matrix ``gram``, solved from
    <omega_i, alpha_j> = delta_ij |alpha_j|^2 / 2."""
    return tuple(tuple(solve_linear(gram, [Fraction(g, 2) if i == j else 0
                                           for j, g in enumerate(row)]))
                 for i, row in enumerate(gram))


@lru_cache(maxsize=None)
def _fundamental_weights(family):
    """Fundamental weights in ambient coordinates."""
    simple = _root_system(family).simple_roots
    return tuple(_combine(c, simple)
                 for c in _fundamental_coefficients(_simple_gram(family)))


@lru_cache(maxsize=None)
def _half_sum(family):
    rs = _root_system(family)
    dim = len(rs.positive_roots[0])
    return tuple(sum(r[k] for r in rs.positive_roots) / Fraction(2)
                 for k in range(dim))


def casimir_of_weight(family, lam):
    """<lam, lam + 2*delta> with delta the half-sum of positive roots."""
    rs = _root_system(family)
    delta = _half_sum(family)
    shifted = tuple(x + 2 * d for x, d in zip(lam, delta))
    return ck_inner(rs.ck, lam, shifted)


def ambient_weight(family, coeffs):
    """Ambient coordinates of the weight sum c_i*omega_i."""
    weights = _fundamental_weights(family)
    if len(coeffs) != len(weights):
        raise ValueError("coefficient count does not match the rank")
    return _combine(coeffs, weights)


@lru_cache(maxsize=None)
def _weyl_rows(family):
    """Rows (k_i |alpha_i|^2)_i = (2 <alpha, omega_i>)_i of the positive
    roots alpha = sum k_i alpha_i under the dot product, and the product
    of the row sums, which is the Weyl denominator up to the CK scale."""
    weights = _fundamental_weights(family)
    rows = tuple(tuple(int(2 * sum(x * y for x, y in zip(alpha, w)))
                       for w in weights)
                 for alpha in _root_system(family).positive_roots)
    return rows, prod(sum(row) for row in rows)


def weyl_dim(family, coeffs):
    """Dimension of the irreducible with highest weight sum c_i*omega_i.

    coeffs are the nonnegative integer fundamental-weight coefficients;
    anything negative is rejected as non-dominant.  With <omega_i,
    alpha_i> = |alpha_i|^2/2, the product formula is an integer ratio,
    the product over positive roots of row.(c + 1) over that of row.1,
    and it must divide exactly to a positive integer, enforced here.
    """
    if any(c < 0 for c in coeffs):
        raise ValueError("non-dominant weight")
    if len(coeffs) != family.rank:
        raise ValueError("coefficient count does not match the rank")
    rows, den = _weyl_rows(family)
    dim, rest = divmod(prod(sum(r * (c + 1) for r, c in zip(row, coeffs))
                            for row in rows), den)
    if rest or dim <= 0:
        raise ValueError("Weyl dimension did not come out a positive integer")
    return dim


# ---------------------------------------------------------------------------
# One enumerator for every spectrum.

def _form_value(gram, p):
    """p'Gp + sum G_ii p_i, the integer numerator of a class-one value."""
    return sum(pi * (sum(g * pj for g, pj in zip(row, p)) + row[i])
               for i, (pi, row) in enumerate(zip(p, gram)))


def _lattice_points(gram, scale, generators, cutoff):
    """Weights lam = sum a_j g_j, integers a_j >= 0 not all zero, with
    value scale*(p'Gp + sum G_ii p_i) <= cutoff, p the simple-root
    coefficients of lam.  The generators g_j are given in simple-root
    coefficients too.

    Returns {value: [a, ...]} by increasing value, each list in
    lexicographic order.  In a the value is a'Wa + w.a; with
    denominators cleared, W and w must be entrywise non-negative and
    W's diagonal positive, as for dominant generators, or ValueError is
    raised.  The form then never decreases in any coordinate, so a
    prefix with a zero tail is an exact lower bound and each coordinate
    stops at its first value over the cutoff, which must be positive.
    """
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    quad = [[scale * sum(x * sum(c * y for c, y in zip(row, h))
                         for x, row in zip(g, gram))
             for h in generators] for g in generators]
    linear = [scale * sum(x * row[i]
                          for i, (x, row) in enumerate(zip(g, gram)))
              for g in generators]
    den = lcm(*(Fraction(x).denominator for x in chain(linear, *quad)))
    quad = [[int(x * den) for x in row] for row in quad]
    linear = [int(x * den) for x in linear]
    if (min(chain(linear, *quad)) < 0
            or min(row[k] for k, row in enumerate(quad)) <= 0):
        raise ValueError("form is not monotone: generators must be dominant")
    limit = floor(cutoff * den)
    found = {}

    def recurse(prefix, value):
        k = len(prefix)
        if k == len(generators):
            if any(prefix):
                found.setdefault(value, []).append(prefix)
            return
        # The value at (prefix, a, 0, ...) is value + a*step + a*a*W_kk.
        step = linear[k] + 2 * sum(quad[k][i] * x
                                   for i, x in enumerate(prefix))
        a = 0
        while (v := value + a * (step + a * quad[k][k])) <= limit:
            recurse(prefix + (a,), v)
            a += 1

    recurse((), 0)
    return {Fraction(v, den): found[v] for v in sorted(found)}


def _class_one_points(gram, scale, cutoff, form=None):
    """{value: [p, ...]} over the class-one weights lam = sum p_i alpha_i
    of the simple roots alpha with Gram matrix ``gram``, with value
    scale*(p'Fp + sum F_ii p_i) <= cutoff, F = ``form`` (default
    ``gram``), p in lexicographic order.

    These are the dominant lam = sum a_j omega_j in the root lattice,
    where p is integral; on a block-diagonal Gram (a product) p may
    vanish on a factor.
    """
    coeffs = _fundamental_coefficients(gram)
    found = {}
    for value, points in _lattice_points(form or gram, scale, coeffs,
                                         cutoff).items():
        ps = sorted(p for p in (_combine(a, coeffs) for a in points)
                    if all(x.denominator == 1 for x in p))
        if ps:
            found[value] = [tuple(int(x) for x in p) for p in ps]
    return found


def _class_one_spectrum(simple_roots, scale, cutoff, origin):
    """Class-one values <= cutoff over ``simple_roots`` at CK scale
    ``scale``, one entry per value, labelled by its p; multiplicities
    are not computed (mult_known is False, mult = 1)."""
    return [SpectrumEntry(value=v, mult=1, origin=origin,
                          label=tuple(ps), mult_known=False)
            for v, ps in _class_one_points(_gram(simple_roots), scale,
                                           cutoff).items()]


# ---------------------------------------------------------------------------
# Flag (total space) spectra.

def is_dominant_class_one(family, p):
    """Dominance of the weight sum p_i*alpha_i: (Gp)_j >= 0 for every j."""
    return all(sum(g * x for g, x in zip(row, p)) >= 0
               for row in _simple_gram(family))


def flag_spectrum(family, cutoff):
    """All class-one eigenvalues of G/T <= cutoff."""
    rs = _root_system(family)
    return _class_one_spectrum(rs.simple_roots, rs.ck.scale, cutoff, "total")


def _first_entries(fetch, count, cutoff=Fraction(1)):
    """First ``count`` entries of fetch(cutoff), doubling the cutoff
    until that many appear.  It starts at 1 by default: first values
    here are about 1 or less, and the last sweep dominates the cost."""
    while True:
        entries = fetch(cutoff)
        if len(entries) >= count:
            return entries[:count]
        cutoff *= 2


@lru_cache(maxsize=None)
def flag_minimum(family):
    """Smallest class-one eigenvalue, found by doubling the cutoff from
    1; every family's minimum is at most 1, so one sweep suffices."""
    return _first_entries(lambda c: flag_spectrum(family, c), 1)[0]


# ---------------------------------------------------------------------------
# Base (symmetric space) spectra.

def kramer_basis(fib_family):
    """Spherical generator weights, as fundamental-weight coefficients."""
    n = fib_family.n
    kind = fib_family.kind
    if kind == "su":
        gen = [0] * n
        gen[0] = gen[n - 1] = 1
        return (tuple(gen),)
    if kind == "so-odd":
        gen = [0] * n
        gen[0] = 1
        return (tuple(gen),)
    if kind == "sp":
        basis = []
        for l in range(n):
            gen = [0] * n
            gen[l] = 2
            basis.append(tuple(gen))
        return tuple(basis)
    if kind == "so-even":
        basis = []
        top = n - 2 if n % 2 == 0 else n - 3
        for idx in range(2, top + 1, 2):
            gen = [0] * n
            gen[idx - 1] = 1
            basis.append(tuple(gen))
        gen = [0] * n
        if n % 2 == 0:
            gen[n - 1] = 2
        else:
            gen[n - 2] = gen[n - 1] = 1
        basis.append(tuple(gen))
        return tuple(basis)
    return ((0, 2), (2, 0))  # g2: 2*omega_long, then 2*omega_short


def base_spectrum(fib_family, cutoff):
    """Base eigenvalues <= cutoff with Weyl-dimension multiplicities.

    Each entry's label lists the generator coefficients x of its
    weights; with a single generator (su, so-odd) it is that x = (q,).
    """
    family = fib_family.root_family
    basis = kramer_basis(fib_family)
    coeffs = _fundamental_coefficients(_simple_gram(family))
    points = _lattice_points(_simple_gram(family),
                             _root_system(family).ck.scale,
                             [_combine(b, coeffs) for b in basis], cutoff)
    return [SpectrumEntry(value=v, origin="base",
                          mult=sum(weyl_dim(family, _combine(x, basis))
                                   for x in xs),
                          label=tuple(xs) if len(basis) > 1 else xs[0])
            for v, xs in points.items()]


def base_spectrum_first(fib_family, count):
    """First ``count`` base entries, growing the cutoff as needed."""
    return _first_entries(lambda c: base_spectrum(fib_family, c), count)


# ---------------------------------------------------------------------------
# Fiber spectra.

def fiber_spectrum(fib, cutoff):
    """Fiber eigenvalues <= cutoff: the class-one values over
    ``fib.fiber_simple_roots`` at G's CK scale, since the canonical
    variation restricts G's form to the fiber.  su at n=2 has first
    value 2/3 here, where SU(2)/T^1 under its own form has 1."""
    return _class_one_spectrum(fib.fiber_simple_roots,
                               fib.root_system.ck.scale, cutoff, "fiber")
