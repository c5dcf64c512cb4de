"""Laplacian spectra: flag totals, symmetric bases, and fibers.

Every flag-manifold eigenvalue is the Casimir value <lam, lam + 2*delta>
of a dominant class-one weight lam = sum p_i*alpha_i, p_i >= 1.  With G
the integer Gram matrix of the simple roots that is the CK scale times
p'Gp + sum G_ii p_i, one quadratic form per family.  Completeness of the
enumeration under a cutoff is guaranteed by a certified lower bound on
the smallest eigenvalue of G.  Base spectra use the closed forms for the
projective space and even sphere, and weight enumeration over the
spherical generator basis for the other three bases, always with
Weyl-dimension multiplicities.

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
from itertools import product
from math import comb, isqrt

from .exact import min_eigenvalue_lower_bound, solve_linear
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


@lru_cache(maxsize=None)
def _fundamental_weights(family):
    """Fundamental weights in ambient coordinates, via the simple Gram."""
    rs = _root_system(family)
    simple = rs.simple_roots
    gram = [[ck_inner(rs.ck, a, b) for b in simple] for a in simple]
    weights = []
    for i, alpha in enumerate(simple):
        rhs = [Fraction(0)] * len(simple)
        rhs[i] = ck_inner(rs.ck, alpha, alpha) / 2
        coeffs = solve_linear(gram, rhs)
        dim = len(simple[0])
        w = tuple(sum(c * root[k] for c, root in zip(coeffs, simple))
                  for k in range(dim))
        weights.append(w)
    return tuple(weights)


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
    dim = len(weights[0])
    return tuple(sum(c * w[k] for c, w in zip(coeffs, weights))
                 for k in range(dim))


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
# Flag (total space) spectra.

@lru_cache(maxsize=None)
def _simple_gram(family):
    """Integer Gram matrix G of the simple roots under the dot product."""
    simple = _root_system(family).simple_roots
    return tuple(tuple(sum(x * y for x, y in zip(a, b)) for b in simple)
                 for a in simple)


def _form_value(gram, p):
    """p'Gp + sum G_ii p_i, the integer numerator of a class-one value."""
    return sum(pi * (sum(g * pj for g, pj in zip(row, p)) + row[i])
               for i, (pi, row) in enumerate(zip(p, gram)))


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
    simple = _root_system(family).simple_roots
    return tuple(sum(c * alpha[k] for c, alpha in zip(p, simple))
                 for k in range(len(simple[0])))


def is_dominant_class_one(family, p):
    """Dominance of the weight sum p_i*alpha_i: (Gp)_j >= 0 for every j."""
    return all(sum(g * x for g, x in zip(row, p)) >= 0
               for row in _simple_gram(family))


def _schur_forms(matrix):
    """Leading-block forms S_k with x'S_k x = min over real tails of Q.

    For a positive definite Q split as [[A, B], [B', C]] after fixing
    the first k coordinates, the minimum over real completions is the
    Schur complement A - B C^{-1} B' applied to the fixed prefix. C is
    a principal submatrix of a positive definite matrix, so the solves
    cannot be singular.
    """
    n = len(matrix)
    forms = {n: matrix}
    for k in range(1, n):
        block_b = [[matrix[i][j] for j in range(k, n)] for i in range(k)]
        block_c = [[matrix[i][j] for j in range(k, n)] for i in range(k, n)]
        solved = [solve_linear(block_c, block_b[i]) for i in range(k)]
        forms[k] = [[matrix[i][j] - sum(block_b[i][l] * solved[j][l]
                                        for l in range(n - k))
                     for j in range(k)] for i in range(k)]
    return forms


def _class_one_values(family, gram, cutoff, mu):
    """Dominant p >= 1 with mu(p) <= cutoff, as {value: [p, ...]}.

    mu(p) must be the family's CK scale times p'Gp + sum G_ii p_i for
    the positive definite integer form ``gram``.  Completeness: a
    certified lower bound on G's least eigenvalue caps every coordinate,
    and each prefix is kept only if the exact minimum of the quadratic
    part over real completions (Schur complement) plus the forced linear
    contribution still fits under the cutoff.
    """
    n = family.rank
    limit = cutoff / _root_system(family).ck.scale
    linear = [gram[i][i] for i in range(n)]
    budget = limit - sum(linear)
    found = {}
    if budget < 0:
        return found
    lam_lo = min_eigenvalue_lower_bound(gram)
    bound_sq = budget / lam_lo
    p_max = isqrt(bound_sq.numerator // bound_sq.denominator)
    schur = _schur_forms(gram)
    tail_linear = [sum(linear[k:]) for k in range(n + 1)]

    def recurse(prefix):
        if len(prefix) == n:
            p = tuple(prefix)
            value = mu(p)
            if value <= cutoff and is_dominant_class_one(family, p):
                found.setdefault(value, []).append(p)
            return
        for nxt in range(1, p_max + 1):
            candidate = prefix + [nxt]
            # The quadratic part of the full vector dominates lam_lo
            # times the sum of squares of any prefix, so this prune
            # loses nothing.
            if lam_lo * sum(x * x for x in candidate) > budget:
                break
            k = len(candidate)
            form = schur[k]
            q_min = sum(form[i][j] * candidate[i] * candidate[j]
                        for i in range(k) for j in range(k))
            fixed = sum(linear[i] * candidate[i] for i in range(k))
            # No completion with p_j >= 1 can beat this value, but it is
            # not monotone in the last coordinate: skip, not break.
            if q_min + fixed + tail_linear[k] > limit:
                continue
            recurse(candidate)

    recurse([])
    return found


def flag_spectrum(family, cutoff):
    """All class-one eigenvalues <= cutoff, one entry per distinct value.

    Multiplicities are not computed (mult_known is False, mult = 1).
    """
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    found = _class_one_values(family, _simple_gram(family), cutoff,
                              lambda p: flag_mu(family, p))
    return [SpectrumEntry(value=v, mult=1, origin="total",
                          label=tuple(ps), mult_known=False)
            for v, ps in sorted(found.items())]


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
    """Base eigenvalues <= cutoff with Weyl-dimension multiplicities."""
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    family = fib_family.root_family
    n = fib_family.n
    kind = fib_family.kind

    if kind in ("su", "so-odd"):
        gen = kramer_basis(fib_family)[0]
        entries = []
        q = 1
        while True:
            if kind == "su":
                value = Fraction(q * (q + n), n + 1)
            else:
                value = Fraction(q * (q + 2 * n - 1), 2 * (2 * n - 1))
            if value > cutoff:
                break
            coeffs = tuple(q * c for c in gen)
            entries.append(SpectrumEntry(value=value, mult=weyl_dim(family, coeffs),
                                         origin="base", label=(q,)))
            q += 1
        return entries

    basis = kramer_basis(fib_family)
    rank = len(basis[0])
    base_values = [casimir_of_weight(family, ambient_weight(family, b))
                   for b in basis]
    boxes = []
    for mu in base_values:
        top = cutoff / mu
        boxes.append(range(0, top.numerator // top.denominator + 1))
    merged = {}
    for x in product(*boxes):
        if not any(x):
            continue
        coeffs = tuple(sum(xi * b[k] for xi, b in zip(x, basis))
                       for k in range(rank))
        value = casimir_of_weight(family, ambient_weight(family, coeffs))
        if value > cutoff:
            continue
        mult = weyl_dim(family, coeffs)
        bucket = merged.setdefault(value, [0, []])
        bucket[0] += mult
        bucket[1].append(x)
    return [SpectrumEntry(value=v, mult=m, origin="base", label=tuple(xs))
            for v, (m, xs) in sorted(merged.items())]


def base_spectrum_first(fib_family, count):
    """First ``count`` base entries, growing the cutoff as needed."""
    return _first_entries(lambda c: base_spectrum(fib_family, c), count)


# ---------------------------------------------------------------------------
# Fiber spectra.

def _a1_values(cutoff):
    values = []
    a = 1
    while True:
        v = Fraction(a * (a + 1), 2)
        if v > cutoff:
            return values
        values.append(v)
        a += 1


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
        singles = [Fraction(0)] + _a1_values(cutoff)
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
    gram = _catalogued_c_gram(n)
    value, argmins = _first_entries(
        lambda c: sorted(_class_one_values(family, gram, c,
                                           _catalogued_c_mu).items()),
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
