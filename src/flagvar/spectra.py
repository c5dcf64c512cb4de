"""Laplacian spectra: flag totals, symmetric bases, and fibers.

Every eigenvalue here is a Casimir value <lam, lam + 2*delta> of a
dominant weight lam = sum a_j g_j, with integers a_j >= 0 not all zero,
over a list of dominant generators g: the fundamental weights for the
flag, keeping only lam in the root lattice (the class-one weights), and
the spherical generators for the base.  Fiber spectra are flag spectra
of the fiber's factors.  Dominant weights have pairwise non-negative
inner products and non-negative <g, 2*delta>, so once denominators are
cleared the value is an integer form a'Wa + w.a with W and w entrywise
non-negative.  That form never decreases in any coordinate: a prefix
with a zero tail is an exact lower bound, and one enumerator that stops
each coordinate at its first value over the cutoff finds every weight
under it.  Base multiplicities are Weyl dimensions.

Two catalogued inconsistencies are surfaced (never silently fixed).
The catalogued sp-family flag polynomial halves the Casimir's
p_{n-1} p_n cross term, so its minimum is 1 where the Casimir minimum is
n/(n+1), and the catalogued first eigenvalue (4n-1)/(4(n+1)) is neither.
The catalogued dominance system for the so-odd flag has a sign slip in
one row.  See ``cn_first_eigenvalue_report`` and
``bn_dominance_row_report``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, floor, lcm

from .exact import solve_linear
from .rootsys import FamilyTag, build_root_system, ck_inner


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
def _simple_gram(family):
    """Integer Gram matrix G of the simple roots under the dot product."""
    simple = _root_system(family).simple_roots
    return tuple(tuple(sum(x * y for x, y in zip(a, b)) for b in simple)
                 for a in simple)


@lru_cache(maxsize=None)
def _fundamental_coefficients(family):
    """Simple-root coefficients of each fundamental weight omega_i,
    solved from <omega_i, alpha_j> = delta_ij |alpha_j|^2 / 2."""
    gram = _simple_gram(family)
    return tuple(tuple(solve_linear(gram, [Fraction(g, 2) if i == j else 0
                                           for j, g in enumerate(row)]))
                 for i, row in enumerate(gram))


@lru_cache(maxsize=None)
def _fundamental_weights(family):
    """Fundamental weights in ambient coordinates."""
    simple = _root_system(family).simple_roots
    return tuple(_combine(c, simple)
                 for c in _fundamental_coefficients(family))


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


def weyl_dim(family, coeffs):
    """Dimension of the irreducible with highest weight sum c_i*omega_i.

    coeffs are the nonnegative integer fundamental-weight coefficients;
    anything negative is rejected as non-dominant.  The product formula
    must come out an exact positive integer, enforced here.
    """
    if any(c < 0 for c in coeffs):
        raise ValueError("non-dominant weight")
    return _weyl_dim_ambient(family, ambient_weight(family, coeffs))


def _weyl_dim_ambient(family, lam):
    rs = _root_system(family)
    delta = _half_sum(family)
    shifted = tuple(x + d for x, d in zip(lam, delta))
    result = Fraction(1)
    for alpha in rs.positive_roots:
        result *= ck_inner(rs.ck, shifted, alpha) / ck_inner(rs.ck, delta, alpha)
    if result.denominator != 1 or result <= 0:
        raise ValueError("Weyl dimension did not come out a positive integer")
    return int(result)


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
    stops at its first value over the cutoff.
    """
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
    limit = floor(Fraction(cutoff) * den)
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


def _class_one_points(family, gram, scale, cutoff):
    """{value: [p, ...]} over the class-one weights lam = sum p_i alpha_i
    with value scale*(p'Gp + sum G_ii p_i) <= cutoff, p in lexicographic
    order.

    These are the dominant lam = sum a_j omega_j in the root lattice,
    where p is integral; every p_i is then >= 1.
    """
    coeffs = _fundamental_coefficients(family)
    found = {}
    for value, points in _lattice_points(gram, scale, coeffs, cutoff).items():
        ps = sorted(p for p in (_combine(a, coeffs) for a in points)
                    if all(x.denominator == 1 for x in p))
        if ps:
            found[value] = [tuple(int(x) for x in p) for p in ps]
    return found


# ---------------------------------------------------------------------------
# Flag (total space) spectra.

def flag_mu(family, p):
    """Casimir value <lam, lam + 2*delta> of lam = sum p_i*alpha_i.

    Since <alpha_i, 2*delta> = |alpha_i|^2, this is the CK scale times
    p'Gp + sum G_ii p_i, with G the integer simple-root Gram matrix.
    """
    if len(p) != family.rank:
        raise ValueError("expected {} coefficients".format(family.rank))
    if any(x < 1 for x in p):
        raise ValueError("class-one coefficients must be >= 1")
    return _root_system(family).ck.scale * _form_value(_simple_gram(family), p)


def class_one_weight(family, p):
    """Ambient weight sum p_i*alpha_i."""
    return _combine(p, _root_system(family).simple_roots)


def is_dominant_class_one(family, p):
    """Dominance of the weight sum p_i*alpha_i: (Gp)_j >= 0 for every j."""
    return all(sum(g * x for g, x in zip(row, p)) >= 0
               for row in _simple_gram(family))


def flag_spectrum(family, cutoff):
    """All class-one eigenvalues <= cutoff, one entry per distinct value.

    Multiplicities are not computed (mult_known is False, mult = 1).
    """
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    found = _class_one_points(family, _simple_gram(family),
                              _root_system(family).ck.scale, cutoff)
    return [SpectrumEntry(value=v, mult=1, origin="total",
                          label=tuple(ps), mult_known=False)
            for v, ps in found.items()]


def _first_entries(fetch, count, cutoff=Fraction(8)):
    """First ``count`` entries of fetch(cutoff), doubling the cutoff
    until that many appear."""
    while True:
        entries = fetch(cutoff)
        if len(entries) >= count:
            return entries[:count]
        cutoff *= 2


@lru_cache(maxsize=None)
def flag_minimum(family):
    """Smallest class-one eigenvalue, found by growing the cutoff.

    The all-ones point seeds the cutoff; it need not be dominant, so
    the first sweep may come back empty, and the cutoff then doubles.
    """
    return _first_entries(lambda c: flag_spectrum(family, c), 1,
                          flag_mu(family, (1,) * family.rank))[0]


# ---------------------------------------------------------------------------
# Base (symmetric space) spectra.

def cpn_multiplicity(n, q):
    """Eigenspace dimension on the projective base, closed form."""
    num = (n + 2 * q) * comb(n + q - 1, q) ** 2
    if num % n:
        raise ValueError("projective multiplicity must divide evenly")
    return num // n


def sphere_multiplicity(n, q):
    """Harmonic-polynomial dimension on the 2n-sphere."""
    first = comb(2 * n + q, q)
    second = comb(2 * n + q - 2, q - 2) if q >= 2 else 0
    return first - second


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


def g2_base_value(r, s):
    """Catalogued base eigenvalue polynomial for the g2 family."""
    return Fraction(9 * r + 6 * r * r + 5 * s + 6 * r * s + 2 * s * s, 6)


def base_spectrum(fib_family, cutoff):
    """Base eigenvalues <= cutoff with Weyl-dimension multiplicities.

    Each entry's label lists the generator coefficients x of its
    weights; with a single generator (su, so-odd) it is that x = (q,).
    """
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    family = fib_family.root_family
    basis = kramer_basis(fib_family)
    coeffs = _fundamental_coefficients(family)
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
    """Fiber eigenvalues <= cutoff under the intrinsic normalization.

    The fiber of the so-odd family at n = 2 and of g2 is a product of
    two rank-one flags, so its spectrum is the sum set of two rank-one
    spectra with zero allowed on either factor.  Every fiber here has
    first positive eigenvalue 1, matching the default phi1.
    """
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    kind, n = fib.family.kind, fib.family.n
    if kind in ("su", "sp", "so-even"):
        inner = flag_spectrum(FamilyTag("A", n - 1), cutoff)
    elif kind == "so-odd" and n >= 4:
        inner = flag_spectrum(FamilyTag("D", n), cutoff)
    else:  # g2, or so-odd at n = 2: two rank-one factors
        singles = [Fraction(0)] + [
            e.value for e in flag_spectrum(FamilyTag("A", 1), cutoff)]
        values = sorted({v1 + v2 for v1 in singles for v2 in singles
                         if 0 < v1 + v2 <= cutoff})
        return [SpectrumEntry(value=v, mult=1, origin="fiber",
                              label=(), mult_known=False)
                for v in values]
    return [SpectrumEntry(value=e.value, mult=1, origin="fiber",
                          label=e.label, mult_known=False)
            for e in inner]


# ---------------------------------------------------------------------------
# Catalogued-inconsistency reports.

def _catalogued_c_gram(n):
    """Numerator form of the catalogued sp-family eigenvalue polynomial.

    Over the denominator 4(n+1): diagonal (2, ..., 2, 4) and -1 next to
    it, which halves the Casimir's p_{n-1} p_n cross term.
    """
    return tuple(tuple(4 if i == j == n - 1 else 2 if i == j
                       else -1 if abs(i - j) == 1 else 0
                       for j in range(n)) for i in range(n))


def _catalogued_c_mu(p):
    """The catalogued sp-family eigenvalue polynomial at p."""
    n = len(p)
    return Fraction(_form_value(_catalogued_c_gram(n), p), 4 * (n + 1))


def cn_first_eigenvalue_report(n):
    """Three first-eigenvalue candidates for the sp-family flag.

    The catalogued polynomial attains 1 and the Casimir n/(n+1), both at
    p = (1, 2, ..., 2, 1), while the catalogued statement of the first
    eigenvalue says (4n-1)/(4(n+1)).  All three are returned; nothing
    is adjudicated here.
    """
    family = FamilyTag("C", n)
    # The polynomial is the Casimir plus p_{n-1} p_n / (2(n+1)), and p is
    # a non-negative combination of the fundamental-weight coefficients,
    # so the enumerator's monotone precondition still holds.
    value, argmins = _first_entries(
        lambda c: list(_class_one_points(family, _catalogued_c_gram(n),
                                         Fraction(1, 4 * (n + 1)), c).items()),
        1, _catalogued_c_mu((1,) * n))[0]
    casimir = flag_minimum(family)
    stated = Fraction(4 * n - 1, 4 * (n + 1))
    return {
        "formula_min": value,
        "formula_argmin": argmins[0],
        "casimir_min": casimir.value,
        "casimir_argmin": casimir.label[0],
        "stated": stated,
        "consistent": value == stated,
    }


def bn_dominance_row_report(n):
    """Witness that one catalogued so-odd dominance row drops a sign.

    The catalogued system lists p_{n-2} + 2p_{n-1} - p_n >= 0 where
    dominance requires -p_{n-2} + 2p_{n-1} - p_n >= 0.  For n >= 3 the
    vector (1, ..., 1, 3) passes the catalogued system yet fails
    dominance.
    """
    if n < 3:
        raise ValueError("the affected row only exists for n >= 3")
    witness = tuple([1] * (n - 1) + [3])
    catalogued_rows = [2 * witness[0] - witness[1]]
    for i in range(1, n - 2):
        catalogued_rows.append(-witness[i - 1] + 2 * witness[i] - witness[i + 1])
    catalogued_rows.append(witness[n - 3] + 2 * witness[n - 2] - witness[n - 1])
    catalogued_rows.append(-witness[n - 2] + witness[n - 1])
    return {
        "witness": witness,
        "catalogued_accepts": all(row >= 0 for row in catalogued_rows),
        "dominant": is_dominant_class_one(FamilyTag("B", n), witness),
    }
