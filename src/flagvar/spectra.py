"""Laplacian spectra: flag totals, symmetric bases, and fibers.

Every eigenvalue here is a Casimir value <lam, lam + 2*delta> of a
dominant weight lam = sum a_j g_j, with integers a_j >= 0 not all zero,
over a list of dominant generators g: the fundamental weights for the
flag and the fiber, keeping only lam in the root lattice (the class-one
weights), and the spherical generators for the base.  The flag and the
fiber differ only in their simple roots, G's or the fiber's (a product
fiber is one block-diagonal Gram matrix), and both are valued at G's CK
scale, which the canonical variation puts on the fiber.  The
fundamental weights are one integer matrix N over one denominator den,
from a fraction-free inversion of the simple-root Gram matrix, so every
generator is an integer row over den and no Fraction enters the
enumerator.  Dominant weights have pairwise non-negative inner products
and non-negative <g, 2*delta>, so the value is one rational factor times
an integer form a'Wa + w.a with W and w entrywise non-negative.  That
form never decreases in any coordinate: a prefix with a zero tail is an
exact lower bound, and one enumerator that stops each coordinate at its
first value over the cutoff finds every weight under it.  Base
multiplicities are Weyl dimensions, an integer product.  The catalogued
eigenvalue statements these are compared with are in ``catalog``.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import floor, gcd, lcm, prod

from .rootsys import build_root_system
# ck_inner is unused here but stays bound: the perfbench tracer
# self-test checks that it is wrapped in this namespace too.
from .rootsys import ck_inner  # noqa: F401


class SpectrumEntry(namedtuple("SpectrumEntry", "value mult origin label")):
    """One spectral line: exact value, multiplicity, origin, label.

    Flag totals and fiber entries carry mult = None, not computed: their
    true multiplicities are never needed downstream, only base
    multiplicities feed the Morse index.
    """

    __slots__ = ()


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
    return _gram(build_root_system(family).simple_roots)


@lru_cache(maxsize=None)
def _fundamental_coefficients(gram):
    """(N, den): integer rows with omega_j = sum_i N[j][i]/den alpha_i
    for the simple roots alpha with Gram matrix ``gram``, den > 0 least.

    <omega_j, alpha_i> = delta_ij G_jj/2 puts omega_j in column j of
    G^-1 diag(G_ii)/2.  One fraction-free Gauss-Jordan on
    [G | diag(G_ii)], each row divided by its gcd, ends with row i as
    (d_i e_i | R_i), R_i/d_i that row of G^-1 diag(G_ii).
    """
    size = len(gram)
    rows = [list(row) + [row[i] if i == j else 0 for j in range(size)]
            for i, row in enumerate(gram)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            raise AssertionError("singular Gram matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                row = [top[col] * x - row[col] * y for x, y in zip(row, top)]
                g = gcd(*row)
                rows[r] = [x // g for x in row]
    den = lcm(*(2 * rows[i][i] for i in range(size)))  # lcm is positive
    coeffs = [[rows[i][size + j] * (den // (2 * rows[i][i]))
               for i in range(size)] for j in range(size)]
    g = gcd(den, *chain(*coeffs))
    return tuple(tuple(x // g for x in row) for row in coeffs), den // g


@lru_cache(maxsize=None)
def _weyl_rows(family):
    """Rows (k_i |alpha_i|^2)_i = (2 <alpha, omega_i>)_i of the positive
    roots alpha = sum k_i alpha_i under the dot product, and the product
    of the row sums, which is the Weyl denominator up to the CK scale.
    Row entry i is 2 sum_k N[i][k] <alpha_k, alpha> / den, an exact
    integer division, checked."""
    coeffs, den = _fundamental_coefficients(_simple_gram(family))
    rs = build_root_system(family)
    rows = []
    for alpha in rs.positive_roots:
        dots = [sum(x * y for x, y in zip(s, alpha)) for s in rs.simple_roots]
        row = [2 * sum(c * d for c, d in zip(n, dots)) for n in coeffs]
        if any(x % den for x in row):
            raise AssertionError("a Weyl row is not integral")
        rows.append(tuple(x // den for x in row))
    return tuple(rows), prod(sum(row) for row in rows)


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
        raise AssertionError(
            "Weyl dimension did not come out a positive integer")
    return dim


# ---------------------------------------------------------------------------
# One enumerator for every spectrum.

def _form_value(gram, p):
    """p'Gp + sum G_ii p_i, the integer numerator of a class-one value."""
    return sum(pi * (sum(g * pj for g, pj in zip(row, p)) + row[i])
               for i, (pi, row) in enumerate(zip(p, gram)))


def _form(gram, scale, generators, den):
    """(W, w, factor): lam = sum a_j g_j, g_j = row_j/den for integer
    rows of simple-root coefficients, has value scale*(p'Gp + sum G_ii
    p_i) = factor*(a'Wa + w.a), p the simple-root coefficients of lam,
    W = (g_j'G g_k)_jk, w_j = den*sum_i g_ji G_ii, factor = scale/den**2.
    Unless W and w are entrywise non-negative, W's diagonal and the
    scale positive, as for dominant generators, ValueError is raised;
    then the form never decreases in any coordinate."""
    quad = [[sum(x * sum(c * y for c, y in zip(row, h))
                 for x, row in zip(g, gram))
             for h in generators] for g in generators]
    linear = [den * sum(x * row[i] for i, (x, row) in enumerate(zip(g, gram)))
              for g in generators]
    if (scale <= 0 or min(chain(linear, *quad)) < 0
            or min(row[k] for k, row in enumerate(quad)) <= 0):
        raise ValueError("form is not monotone: generators must be dominant")
    return quad, linear, Fraction(scale) / (den * den)


def _lattice_points(gram, scale, generators, den, cutoff):
    """{value: [a, ...]} by increasing value, each list in lexicographic
    order, over the weights sum a_j g_j, integers a_j >= 0 not all zero,
    valued at most ``cutoff`` > 0 by ``_form``.  The form never decreases
    in any coordinate, so a prefix with a zero tail is an exact lower
    bound and each coordinate stops at its first value over the cutoff."""
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    quad, linear, factor = _form(gram, scale, generators, den)
    limit = floor(cutoff / factor)
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
    return {v * factor: found[v] for v in sorted(found)}


def _root_coordinates(a, coeffs, den):
    """p = a.N/den, the simple-root coefficients of sum a_j omega_j with
    (N, den) from ``_fundamental_coefficients``, or None when some entry
    is not an integer: the weight is off the root lattice."""
    p = _combine(a, coeffs)
    if any(x % den for x in p):
        return None
    return tuple(x // den for x in p)


def _class_one_spectrum(simple_roots, scale, cutoff, origin):
    """Class-one values <= cutoff over ``simple_roots`` at CK scale
    ``scale``, one entry per value, labelled by its p in lexicographic
    order; multiplicities are not computed (mult = None).

    A value is scale*(p'Gp + sum G_ii p_i) over the class-one weights
    lam = sum p_i alpha_i, G the Gram matrix of ``simple_roots``.  These
    are the dominant lam = sum a_j omega_j in the root lattice: with
    omega_j = N_j/den, p = a.N/den is integral exactly when every entry
    of a.N is divisible by den.  On a block-diagonal Gram (a product) p
    may vanish on a factor.
    """
    gram = _gram(simple_roots)
    coeffs, den = _fundamental_coefficients(gram)
    entries = []
    for value, points in _lattice_points(gram, scale, coeffs, den,
                                         cutoff).items():
        ps = sorted(p for p in (_root_coordinates(a, coeffs, den)
                                for a in points) if p is not None)
        if ps:
            entries.append(SpectrumEntry(value=value, mult=None,
                                         origin=origin, label=tuple(ps)))
    return entries


# ---------------------------------------------------------------------------
# Flag (total space) spectra.

def is_dominant_class_one(family, p):
    """Dominance of the weight sum p_i*alpha_i: (Gp)_j >= 0 for every j."""
    return all(sum(g * x for g, x in zip(row, p)) >= 0
               for row in _simple_gram(family))


def flag_spectrum(family, cutoff):
    """All class-one eigenvalues of G/T <= cutoff."""
    rs = build_root_system(family)
    return _class_one_spectrum(rs.simple_roots, rs.scale, cutoff, "total")


def _first_entries(fetch, count):
    """First ``count`` entries of fetch(cutoff), doubling the cutoff
    until that many appear.  It starts at 1: first values here are
    about 1 or less, and the last sweep dominates the cost."""
    cutoff = Fraction(1)
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


def _base_generators(fib_family):
    """(G, scale, generators, den) of the spherical generators, as
    ``_form`` and ``_lattice_points`` take them."""
    family = fib_family.root_family
    gram = _simple_gram(family)
    coeffs, den = _fundamental_coefficients(gram)
    return (gram, build_root_system(family).scale,
            [_combine(b, coeffs) for b in kramer_basis(fib_family)], den)


def base_spectrum(fib_family, cutoff):
    """Base eigenvalues <= cutoff with Weyl-dimension multiplicities.

    Each entry's label lists the generator coefficients x of its
    weights; with a single generator (su, so-odd) it is that x = (q,).
    """
    family = fib_family.root_family
    basis = kramer_basis(fib_family)
    points = _lattice_points(*_base_generators(fib_family), cutoff)
    return [SpectrumEntry(value=v, origin="base",
                          mult=sum(weyl_dim(family, _combine(x, basis))
                                   for x in xs),
                          label=tuple(xs) if len(basis) > 1 else xs[0])
            for v, xs in points.items()]


def spherical_multiple_above(fib_family, target):
    """(value, fundamental-weight coefficients) of the weight k*gen, gen
    the first spherical generator and k >= 1 least with value over
    ``target``.  The value is the base form's at (k, 0, ..., 0),
    factor*(k*k*W_00 + k*w_0)."""
    quad, linear, factor = _form(*_base_generators(fib_family))
    limit = floor(Fraction(target) / factor)
    k = 1
    while (value := k * (k * quad[0][0] + linear[0])) <= limit:
        k += 1
    return factor * value, tuple(k * c for c in kramer_basis(fib_family)[0])


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
                               fib.root_system.scale, cutoff, "fiber")
