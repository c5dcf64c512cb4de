"""Laplacian spectra: flag totals, symmetric bases, and fibers.

Every eigenvalue here is a Casimir value <lam, lam + 2*delta> of a
dominant weight lam = sum a_j g_j, with integers a_j >= 0 not all zero,
over a list of dominant generators g: the fundamental weights for the
flag and the fiber, keeping only lam in the root lattice (the class-one
weights), and for the base the spherical generators, which
``kramer_basis`` reads off the family's ambient weights.  The flag and
the fiber differ only in their simple roots, G's or the fiber's (a
product fiber is one block-diagonal Gram matrix), and both are valued at
G's CK scale, which the canonical variation puts on the fiber.  The
fundamental weights are one integer matrix N over one denominator den,
from a fraction-free inversion of the simple-root Gram matrix, so every
generator is an integer row over den and no Fraction enters the
enumerator.  The same N gives each positive root's simple-root
coordinates k, once (``_root_coordinates``): the fibration's grading
reads k_n, and the Weyl factors are the k_i*|alpha_i|^2.  Dominant
weights have pairwise non-negative inner products and non-negative
<g, 2*delta>, so the value is one rational factor times an integer form
a'Wa + w.a with W and w entrywise non-negative.  That form never
decreases in any coordinate: a prefix with a zero tail is an exact lower
bound, and one enumerator that stops each coordinate at its first value
over the cutoff finds every weight under it.  The walk carries each
weight's integer vector, affine in a: den*p for the class-one test, and
the Weyl factors for the base, so multiplicities are carried down the
walk, not recomputed per weight.  A first value is one walk at cutoff
1: a highest root is dominant and in its root lattice, G's has Casimir
exactly 1 under the CK scale, and each fiber factor's has some c_s < 1
there, so neither walk is empty.  Class-one walks are cached on the
walk, not on its readers: per (simple roots, scale, cutoff), each a
tuple its readers share.  So mu1, phi1, the sp catalogued minimum and
the figure's first entries read one walk at cutoff 1, and no query
walks one spectrum twice at one cutoff.  The catalogued eigenvalue
statements these are compared with are in ``catalog``.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import floor, gcd, lcm, prod
from operator import add, mul

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
def _root_coordinates(family):
    """The simple-root coordinates k, alpha = sum k_j alpha_j, of each
    positive root of ``family`` in order, derived here and nowhere else.
    Row m of ``omega`` holds 2*den*<e_m, omega_j> over j, so k_j*den*G_jj
    = 2*den*<alpha, omega_j> sums alpha_m times those rows over alpha's
    nonzero entries m; the division by den*G_jj is exact, checked."""
    rs = build_root_system(family)
    gram = _simple_gram(family)
    coeffs, den = _fundamental_coefficients(gram)
    omega = [[2 * sum(map(mul, n, col)) for n in coeffs]
             for col in zip(*rs.simple_roots)]
    units = [den * row[j] for j, row in enumerate(gram)]
    table = []
    for alpha in rs.positive_roots:
        k = list(map(divmod, map(sum, zip(*(
            [x * w for w in omega[m]] for m, x in enumerate(alpha) if x))),
            units))
        if any(rest for _, rest in k):
            raise AssertionError("simple-root coordinates are not integral")
        table.append(tuple(kj for kj, _ in k))
    return tuple(table)


@lru_cache(maxsize=None)
def _weyl_rows(family):
    """Rows k_i*G_ii = 2<alpha, omega_i> of the positive roots, read off
    ``_root_coordinates``, and the product of the row sums, which is the
    Weyl denominator up to the CK scale."""
    diag = [row[i] for i, row in enumerate(_simple_gram(family))]
    rows = tuple(tuple(map(mul, k, diag)) for k in _root_coordinates(family))
    return rows, prod(map(sum, rows))


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
    return _weyl_quotient(prod(sum(r * (c + 1) for r, c in zip(row, coeffs))
                               for row in rows), den)


def _weyl_quotient(numerator, den):
    """numerator/den, checked to be a positive integer."""
    dim, rest = divmod(numerator, den)
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
    W is (g_j'G).g_k, each row g_j'G formed once.
    Unless W and w are entrywise non-negative, W's diagonal and the
    scale positive, as for dominant generators, ValueError is raised;
    then the form never decreases in any coordinate."""
    g_gram = [[sum(map(mul, g, col)) for col in zip(*gram)]
              for g in generators]
    quad = [[sum(map(mul, gg, h)) for h in generators] for gg in g_gram]
    linear = [den * sum(x * row[i] for i, (x, row) in enumerate(zip(g, gram)))
              for g in generators]
    if (scale <= 0 or min(chain(linear, *quad)) < 0
            or min(row[k] for k, row in enumerate(quad)) <= 0):
        raise ValueError("form is not monotone: generators must be dominant")
    return quad, linear, Fraction(scale) / (den * den)


def _lattice_points(gram, scale, generators, den, cutoff, carried):
    """{value: [(a, leaf(v)), ...]} by increasing value, each list in
    lexicographic order, over the weights sum a_j g_j, integers a_j >= 0
    not all zero and leaf(v) not None, v = v0 + sum a_j r_j for carried
    = (v0, r, leaf), valued at most ``cutoff`` > 0 by ``_form``.  The form
    never decreases in any coordinate, so a zero-tailed prefix is an exact
    lower bound and each coordinate stops at its first value over cutoff."""
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    quad, linear, factor = _form(gram, scale, generators, den)
    limit = floor(cutoff / factor)
    start, rows, leaf = carried
    found = {}

    def recurse(prefix, value, vec):
        k = len(prefix)
        # The value at (prefix, a, 0, ...) is value + a*step + a*a*W_kk.
        step = linear[k] + 2 * sum(quad[k][i] * x
                                   for i, x in enumerate(prefix))
        a = 0
        while (v := value + a * (step + a * quad[k][k])) <= limit:
            if k + 1 < len(generators):
                recurse(prefix + (a,), v, vec)
            elif (a or any(prefix)) and (kept := leaf(vec)) is not None:
                found.setdefault(v, []).append((prefix + (a,), kept))
            vec = tuple(map(add, vec, rows[k]))
            a += 1

    recurse((), 0, start)
    return {v * factor: found[v] for v in sorted(found)}


@lru_cache(maxsize=None)
def _class_one_spectrum(simple_roots, scale, cutoff, origin):
    """Class-one values <= cutoff over ``simple_roots`` at CK scale
    ``scale``, one entry per value, labelled by its p in lexicographic
    order; multiplicities are not computed (mult = None).  Cached per
    (simple roots, scale, cutoff): a tuple, shared by every reader.

    A value is scale*(p'Gp + sum G_ii p_i) over the class-one weights
    lam = sum p_i alpha_i, G the Gram matrix of ``simple_roots``.  These
    are the dominant lam = sum a_j omega_j in the root lattice: with
    omega_j = N_j/den, the walk carries v = a.N = den*p, and p is
    integral exactly when every entry of v is divisible by den.  On a
    block-diagonal Gram (a product) p may vanish on a factor.
    """
    gram = _gram(simple_roots)
    coeffs, den = _fundamental_coefficients(gram)

    def class_one(v):
        return None if any(x % den for x in v) else tuple(x // den for x in v)

    points = _lattice_points(gram, scale, coeffs, den, cutoff,
                             ((0,) * len(coeffs), coeffs, class_one))
    return tuple(SpectrumEntry(value=value, mult=None, origin=origin,
                               label=tuple(sorted(p for _, p in pairs)))
                 for value, pairs in points.items())


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


def flag_minimum(family):
    """Smallest class-one eigenvalue, the first of the cached walk at
    cutoff 1, which G's highest root, valued 1, keeps from being empty."""
    return flag_spectrum(family, 1)[0]


# ---------------------------------------------------------------------------
# Base (symmetric space) spectra.

def kramer_basis(fib_family):
    """Spherical generators as fundamental-weight coefficients
    c_i = 2<lam, alpha_i>/<alpha_i, alpha_i> of the ambient weights
    ``fib_family.spherical_weights``; AssertionError unless every c_i
    is a non-negative integer, as for a dominant weight."""
    simple = build_root_system(fib_family.root_family).simple_roots
    basis = []
    for lam in fib_family.spherical_weights:
        row = [divmod(2 * sum(map(mul, lam, alpha)),
                      sum(map(mul, alpha, alpha))) for alpha in simple]
        if any(rest or c < 0 for c, rest in row):
            raise AssertionError(
                "spherical generator {} is not dominant".format(lam))
        basis.append(tuple(c for c, _ in row))
    return tuple(basis)


def _base_generators(family, basis):
    """(G, scale, generators, den) of the spherical generators b in
    ``basis``, as ``_form`` and ``_lattice_points`` take them: the rows b.N."""
    gram = _simple_gram(family)
    coeffs, den = _fundamental_coefficients(gram)
    return (gram, build_root_system(family).scale,
            [[sum(c * n[i] for c, n in zip(b, coeffs)) for i in range(len(b))]
             for b in basis], den)


def base_spectrum(fib_family, cutoff):
    """Base eigenvalues <= cutoff with Weyl-dimension multiplicities.

    Each entry's label lists the generator coefficients x of its
    weights; with a single generator it is that x = (q,).
    The walk carries the Weyl factors row.1 + sum x_j row.b_j of
    sum x_j b_j; over the Weyl denominator their product is its weyl_dim.
    """
    basis = kramer_basis(fib_family)
    rows, den = _weyl_rows(fib_family.root_family)
    carried = (tuple(map(sum, rows)),
               [[sum(map(mul, row, b)) for row in rows] for b in basis],
               lambda w: _weyl_quotient(prod(w), den))
    points = _lattice_points(*_base_generators(fib_family.root_family, basis),
                             cutoff, carried)
    return [SpectrumEntry(value=v, origin="base",
                          mult=sum(dim for _, dim in pairs),
                          label=(tuple(x for x, _ in pairs) if len(basis) > 1
                                 else pairs[0][0]))
            for v, pairs in points.items()]


def spherical_multiple_above(fib_family, target):
    """(value, fundamental-weight coefficients) of the weight k*gen, gen
    the first spherical generator and k >= 1 least with value over
    ``target``.  The value is the base form's at (k, 0, ..., 0),
    factor*(k*k*W_00 + k*w_0)."""
    basis = kramer_basis(fib_family)
    quad, linear, factor = _form(*_base_generators(fib_family.root_family,
                                                   basis))
    limit = floor(Fraction(target) / factor)
    k = 1
    while (value := k * (k * quad[0][0] + linear[0])) <= limit:
        k += 1
    return factor * value, tuple(k * c for c in basis[0])


# ---------------------------------------------------------------------------
# Fiber spectra.

def fiber_spectrum(fib, cutoff):
    """Fiber eigenvalues <= cutoff: the class-one values over
    ``fib.fiber_simple_roots`` at G's CK scale, since the canonical
    variation restricts G's form to the fiber.  su at n=2 has first
    value 2/3 here, where SU(2)/T^1 under its own form has 1."""
    return _class_one_spectrum(fib.fiber_simple_roots,
                               fib.root_system.scale, cutoff, "fiber")
