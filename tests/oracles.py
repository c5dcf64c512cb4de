"""Closed forms that only the tests use, kept as independent oracles.

Import from a test module with ``from oracles import ...``; pytest puts
this directory on the path.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import add

from flagvar.catalog import _catalogued_c_gram
from flagvar.exact import common_denominator
from flagvar.rootsys import build_root_system, ck_inner
from flagvar.spectra import _form_value, _simple_gram, flag_minimum
from flagvar.variation import gap_quadratic


def flag_mu(family, p):
    """Casimir value <lam, lam + 2*delta> of lam = sum p_i*alpha_i.

    Since <alpha_i, 2*delta> = |alpha_i|^2, this is the CK scale times
    p'Gp + sum G_ii p_i, with G the integer simple-root Gram matrix.
    """
    if len(p) != family.rank:
        raise ValueError("expected {} coefficients".format(family.rank))
    if any(x < 1 for x in p):
        raise ValueError("class-one coefficients must be >= 1")
    return (build_root_system(family).scale
            * _form_value(_simple_gram(family), p))


def root_string(rs, alpha, beta):
    """The alpha-string through beta: largest p, q with beta - p*alpha
    and beta + q*alpha both roots of ``rs``.

    Undefined (and rejected) for beta = +-alpha.
    """
    neg = tuple(-x for x in alpha)
    if beta == alpha or beta == neg:
        raise ValueError("root string through +-alpha is undefined")
    roots = rs.roots
    if alpha not in roots or beta not in roots:
        raise ValueError("arguments must be roots")

    def reach(step):
        k, current = 0, beta
        while (current := tuple(map(add, current, step))) in roots:
            k += 1
        return k

    return reach(neg), reach(alpha)


def structure_constant_sq(rs, alpha, beta):
    """Squared structure constant N^2 for the pair (alpha, beta).

    Zero when alpha + beta is not a root; otherwise q*(p+1)*<a,a>/2 with
    (p, q) the alpha-string through beta.
    """
    if tuple(map(add, alpha, beta)) not in rs.roots:
        return Fraction(0)
    p, q = root_string(rs, alpha, beta)
    return Fraction(q * (p + 1), 2) * ck_inner(rs.scale, alpha, alpha)


def catalogued_c_mu(p):
    """The catalogued sp-family eigenvalue polynomial at p: the form
    ``_catalogued_c_gram`` over the denominator 4(n+1)."""
    n = len(p)
    return Fraction(_form_value(_catalogued_c_gram(n), p), 4 * (n + 1))


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


def solve_linear(matrix, rhs):
    """Solve matrix @ x = rhs by dense Gaussian elimination over Fraction;
    matrix must be square invertible, else ValueError."""
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


def fundamental_coefficients(gram):
    """Simple-root coefficients of each fundamental weight omega_j, solved
    one Fraction system per j from <omega_j, alpha_i> = delta_ij G_jj/2."""
    return [solve_linear(gram, [Fraction(row[j], 2) if i == j else 0
                                for i in range(len(gram))])
            for j, row in enumerate(gram)]


@lru_cache(maxsize=None)
def _ambient_fundamental_weights(family):
    """Fundamental weights in ambient coordinates, from the Fraction solve."""
    simple = build_root_system(family).simple_roots
    gram = [[sum(x * y for x, y in zip(a, b)) for b in simple]
            for a in simple]
    return tuple(tuple(sum(c * alpha[k] for c, alpha in zip(row, simple))
                       for k in range(len(simple[0])))
                 for row in fundamental_coefficients(gram))


@lru_cache(maxsize=None)
def _half_sum(family):
    """delta, the half-sum of the positive roots, in ambient coordinates."""
    positive = build_root_system(family).positive_roots
    return tuple(Fraction(sum(col), 2) for col in zip(*positive))


def ambient_weight(family, coeffs):
    """Ambient coordinates of the weight sum c_i*omega_i."""
    weights = _ambient_fundamental_weights(family)
    if len(coeffs) != len(weights):
        raise ValueError("coefficient count does not match the rank")
    return tuple(sum(c * w[k] for c, w in zip(coeffs, weights))
                 for k in range(len(weights[0])))


def casimir_of_weight(family, lam):
    """<lam, lam + 2*delta> in the CK form on ambient coordinates.

    The one eigenvalue derivation here that does not go through the
    class-one form ``_form_value`` the program enumerates with.
    """
    shifted = tuple(x + 2 * d for x, d in zip(lam, _half_sum(family)))
    return ck_inner(build_root_system(family).scale, lam, shifted)


def freudenthal_multiplicities(family, coeffs):
    """{mu: m_lam(mu)} over the weights of the irreducible with highest
    weight lam = sum c_i*omega_i, ambient Fraction coordinates.

    Freudenthal's recursion (Humphreys, *Introduction to Lie Algebras
    and Representation Theory*, §22.3), level by level below lam:
    ((lam+delta)^2 - (mu+delta)^2) m(mu) = 2 sum over alpha > 0 and
    k >= 1 of m(mu + k*alpha) <mu + k*alpha, alpha>.  Both sides are
    quadratic in the form, so the dot product on coordinates scaled to
    integers serves.  Each level is the previous one minus a simple
    root.  The weights on mu + Z*alpha are one s_alpha-stable string, so
    each alpha's sum stops at its first non-weight, and a candidate off
    the weights gets a zero sum.
    """
    rs = build_root_system(family)
    lam = ambient_weight(family, coeffs)
    den = lcm(2, *(Fraction(x).denominator for x in lam))

    def scaled(v):
        return tuple(int(den * x) for x in v)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def norm(mu):
        shifted = tuple(x + d for x, d in zip(mu, delta))
        return dot(shifted, shifted)

    delta = scaled(_half_sum(family))
    simple = [scaled(a) for a in rs.simple_roots]
    positive = [scaled(a) for a in rs.positive_roots]
    top = scaled(lam)
    mult = {top: 1}
    level = [top]
    while level:
        candidates = {tuple(x - y for x, y in zip(mu, alpha))
                      for mu in level for alpha in simple}
        level = []
        for mu in candidates:
            total = 0
            for alpha in positive:
                nu = tuple(x + y for x, y in zip(mu, alpha))
                while nu in mult:
                    total += mult[nu] * dot(nu, alpha)
                    nu = tuple(x + y for x, y in zip(nu, alpha))
            if total == 0:
                continue
            m, rest = divmod(2 * total, norm(top) - norm(mu))
            if rest or m <= 0:
                raise AssertionError("multiplicity is not a positive integer")
            mult[mu] = m
            level.append(mu)
    return {tuple(Fraction(x, den) for x in mu): m for mu, m in mult.items()}


def gap_form(fib):
    """(c0, c1, slope, c2, den) of ``FibrationData.gap``, derived apart:
    ``gap_quadratic`` is affine in mu, so at (beta, 0) it is
    (c0, c1 + slope*beta, c2)/den, read off at beta = 0 and 1 over one
    common denominator."""
    at0 = gap_quadratic(fib, 0, 0)
    at1 = gap_quadratic(fib, 1, 0)
    (c0, c1, c2, c1_at1), den = common_denominator(at0 + (at1[1],))
    return c0, c1, c1_at1 - c1, c2, den


def flag_by_gap_quadratic(fib, u):
    """The bifurcation flag at the instant u from the (mu1, phi1) gap
    quadratic: at u, scal(t)/(m-1) = beta lies below the curve
    mu1 + (1/u - 1)*phi1 exactly when that quadratic, cleared of
    denominators, is negative there."""
    mu1 = flag_minimum(fib.family.root_family).value
    (f0, f1, f2), _ = common_denominator(gap_quadratic(fib, mu1, fib.phi1))
    return (u * (u * f2 + f1) + f0).sign() < 0
