"""Laplacian spectra: flag totals, symmetric bases, and fibers.

Every eigenvalue here is a Casimir value <lam, lam + 2*delta> of a
dominant weight lam = sum a_j g_j, with integers a_j >= 0 not all zero,
over a list of dominant generators g: the fundamental weights for the
flag and the fiber, keeping only lam in the root lattice (the class-one
weights), and for the base the spherical generators, the family's
ambient weights.  Dominant weights have pairwise non-negative inner
products and non-negative <g, 2*delta>, so the value is one rational
factor times an integer form a'Wa + w.a with W = (<g_j, g_k>) and w =
(<g_j, 2*delta>) entrywise non-negative, each checked by ``_form``.
The base's is read off the ambient weights, 2*delta the sum of the
positive roots, at G's CK scale, with no inverse.  The flag and
the fiber differ only in their simple roots, G's or the fiber's (a
product fiber is one block-diagonal Gram matrix), and both are valued
at G's CK scale, which the canonical variation puts on the fiber.
Their fundamental weights are one integer matrix N over one
denominator den, from a fraction-free inversion of the simple-root
Gram matrix, so every generator is an integer row over den and no
Fraction enters the enumerator; N G = den*diag(G_ii)/2 gives their form
off N with no matrix product.  The Weyl factors are the
k_i*|alpha_i|^2, k each positive root's simple-root coordinates, grown
with it in ``rootsys``.  The form never decreases in any coordinate: a
prefix with a zero tail is an exact lower bound, and one enumerator
that stops each coordinate at its first value over the cutoff finds
every weight under it.  The walk carries each weight's integer vector,
affine in a: den*p for the class-one test, and the Weyl factors for the
base, so multiplicities are carried down the walk, not recomputed per
weight.  mu1 is the first value of the flag's walk at cutoff 1, which
G's highest root, dominant, in the root lattice and of Casimir exactly
1, keeps from being empty.  phi1 walks nothing
(``FibrationData.phi1``): the fiber's walk serves ``figure`` and the
tests.  A spectral line is (value, mult, label) and says nothing of
which spectrum it belongs to, so class-one walks are cached on the
walk's own inputs: per (simple roots, scale, cutoff), each a tuple its
readers share.  So mu1, the sp catalogued minimum and the figure's
first flag entries read one walk at cutoff 1, and no query walks one
spectrum twice at one cutoff.  The catalogued eigenvalue statements
these are compared with are in ``catalog``.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import floor, gcd, isqrt, lcm, prod
from operator import add, mul

from .rootsys import build_root_system, gram_matrix
# ck_inner is unused here but stays bound: the perfbench tracer
# self-test checks that it is wrapped in this namespace too.
from .rootsys import ck_inner  # noqa: F401


class SpectrumEntry(namedtuple("SpectrumEntry", "value mult label")):
    """One spectral line: exact value, multiplicity, label.

    Flag totals and fiber entries carry mult = None, not computed: their
    true multiplicities are never needed downstream, only base
    multiplicities feed the Morse index.  Which spectrum a line belongs
    to is its caller's to say: the spectrum printer writes it.
    """

    __slots__ = ()


def _simple_gram(family):
    """Integer Gram matrix G of the simple roots of ``family``."""
    return gram_matrix(build_root_system(family).simple_roots)


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
    """Rows k_i*G_ii = 2<alpha, omega_i> of the positive roots, read off
    their coordinates k, and the product of the row sums, which is the
    Weyl denominator up to the CK scale."""
    diag = [row[i] for i, row in enumerate(_simple_gram(family))]
    rows = tuple(tuple(map(mul, k, diag))
                 for k in build_root_system(family).coordinates)
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


def _form(quad, linear, factor):
    """(W, w, factor), checked: the form whose value factor*(a'Wa + w.a)
    is the Casimir of the weight sum a_j g_j, W = (<g_j, g_k>) and w =
    (<g_j, 2*delta>) in units of 1/factor.  Unless W and w are entrywise
    non-negative, W's diagonal and the factor positive, as for dominant
    generators, ValueError is raised; then the form never decreases in
    any coordinate.  The walk and the witness read only forms checked
    here."""
    if (factor <= 0 or min(chain(linear, *quad)) < 0
            or min(row[k] for k, row in enumerate(quad)) <= 0):
        raise ValueError("form is not monotone: generators must be dominant")
    return quad, linear, factor


def _lattice_points(form, cutoff, carried):
    """{value: [(a, leaf(v)), ...]} by increasing value, each list in
    lexicographic order, over the integers a_j >= 0 not all zero with
    leaf(v) not None, v = v0 + sum a_j r_j for carried = (v0, r, leaf),
    valued at most ``cutoff`` > 0 by ``form``, one that ``_form`` made.
    It never decreases in any coordinate, so a zero-tailed prefix is an
    exact lower bound and each coordinate stops at its first value over
    cutoff."""
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    quad, linear, factor = form
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
            if k + 1 < len(quad):
                recurse(prefix + (a,), v, vec)
            elif (a or any(prefix)) and (kept := leaf(vec)) is not None:
                found.setdefault(v, []).append((prefix + (a,), kept))
            vec = tuple(map(add, vec, rows[k]))
            a += 1

    recurse((), 0, start)
    return {v * factor: found[v] for v in sorted(found)}


@lru_cache(maxsize=None)
def _class_one_spectrum(simple_roots, scale, cutoff):
    """Class-one values <= cutoff over ``simple_roots`` at CK scale
    ``scale``, one entry per value, labelled by its p in lexicographic
    order; multiplicities are not computed (mult = None).  Cached per
    (simple roots, scale, cutoff): a tuple, shared by every reader.

    A value is scale*(p'Gp + sum G_ii p_i) over the class-one weights
    lam = sum p_i alpha_i, G the Gram matrix of ``simple_roots``.  These
    are the dominant lam = sum a_j omega_j in the root lattice: with
    omega_j = N_j/den, the walk carries v = a.N = den*p, and p is
    integral exactly when every entry of v is divisible by den.  On a
    block-diagonal Gram (a product) p may vanish on a factor.  The form
    is read off N with no matrix product: <omega_j, alpha_i> =
    delta_ij G_jj/2 makes N G = den*diag(G_jj)/2, so <omega_j, omega_k>
    = N_j G N_k/den**2 = (den*G_jj/2)*N_kj/den**2, O(r**2) products.
    """
    gram = gram_matrix(simple_roots)
    coeffs, den = _fundamental_coefficients(gram)
    # <omega_j, 2*delta> = sum_i N_ji G_ii/den.
    diag = [row[i] for i, row in enumerate(gram)]
    form = _form([list(map(mul, col, repeat(den * d // 2)))
                  for d, col in zip(diag, zip(*coeffs))],
                 [den * sum(map(mul, g, diag)) for g in coeffs],
                 Fraction(scale) / (den * den))

    def class_one(v):
        return None if any(x % den for x in v) else tuple(x // den for x in v)

    points = _lattice_points(form, cutoff,
                             ((0,) * len(coeffs), coeffs, class_one))
    return tuple(SpectrumEntry(value=value, mult=None,
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
    return _class_one_spectrum(rs.simple_roots, rs.scale, cutoff)


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
    is a non-negative integer, as for a dominant weight.  The base form
    reads the ambient weights; these serve the Weyl rows and the
    witness's coefficients."""
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


def _base_form(fib_family):
    """The base's form, read off the ambient spherical weights lam_j:
    sum a_j lam_j has Casimir scale*(a'Wa + w.a) with W_jk = lam_j.lam_k
    and w_j = lam_j.2*delta, 2*delta the sum of the positive roots."""
    rs = build_root_system(fib_family.root_family)
    weights = fib_family.spherical_weights
    two_delta = list(map(sum, zip(*rs.positive_roots)))
    return _form([[sum(map(mul, lam, mu)) for mu in weights]
                  for lam in weights],
                 [sum(map(mul, lam, two_delta)) for lam in weights], rs.scale)


def base_spectrum(fib_family, cutoff):
    """Base eigenvalues <= cutoff with Weyl-dimension multiplicities.

    The values are the base form's, read off the ambient spherical
    weights.  Each entry's label is the tuple of the generator
    coefficient tuples x of its weights, ((q,),) with a single
    generator, the one shape of every spectrum's labels.  The walk
    carries the Weyl factors row.1 + sum x_j row.b_j of sum x_j b_j, b
    the ``kramer_basis`` rows; over the Weyl denominator their product
    is its weyl_dim.
    """
    basis = kramer_basis(fib_family)
    rows, den = _weyl_rows(fib_family.root_family)
    carried = (tuple(map(sum, rows)),
               [[sum(map(mul, row, b)) for row in rows] for b in basis],
               lambda w: _weyl_quotient(prod(w), den))
    points = _lattice_points(_base_form(fib_family), cutoff, carried)
    return [SpectrumEntry(value=v, mult=sum(dim for _, dim in pairs),
                          label=tuple(x for x, _ in pairs))
            for v, pairs in points.items()]


def spherical_multiple_above(fib_family, target):
    """(value, fundamental-weight coefficients) of the weight k*gen, gen
    the first spherical generator and k >= 1 least with value over
    ``target``.  The value is the base form's at (k, 0, ..., 0),
    factor*k*(k*w2 + w1) with w2 = W_00 > 0 and w1 = w_0 >= 0.  For
    L = floor(target/factor) >= 0, k*(k*w2 + w1) <= L exactly when
    2*w2*k + w1 <= isqrt(w1**2 + 4*w2*L), so k, one past the largest
    such k, is one integer square root, whatever its size."""
    basis = kramer_basis(fib_family)
    quad, linear, factor = _base_form(fib_family)
    w2, w1 = quad[0][0], linear[0]
    limit = max(floor(Fraction(target) / factor), 0)
    k = (isqrt(w1 * w1 + 4 * w2 * limit) - w1) // (2 * w2) + 1
    return factor * (k * (k * w2 + w1)), tuple(k * c for c in basis[0])


# ---------------------------------------------------------------------------
# Fiber spectra.

def fiber_spectrum(fib, cutoff):
    """Fiber eigenvalues <= cutoff: the class-one values over
    ``fib.fiber_simple_roots`` at G's CK scale, since the canonical
    variation restricts G's form to the fiber.  su at n=2 has first
    value 2/3 here, where SU(2)/T^1 under its own form has 1."""
    return _class_one_spectrum(fib.fiber_simple_roots,
                               fib.root_system.scale, cutoff)
