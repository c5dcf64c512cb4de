"""Closed forms that only the tests use, kept as independent oracles.

Import from a test module with ``from oracles import ...``; pytest puts
this directory on the path.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, isqrt, lcm
from operator import add

from flagvar.catalog import _catalogued_c_gram
from flagvar.exact import common_denominator
from flagvar.rootsys import build_root_system, ck_inner
from flagvar.spectra import (_form_value, _fundamental_coefficients,
                             _simple_gram, flag_minimum, kramer_basis)


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


@lru_cache(maxsize=None)
def all_roots(rs):
    """Every root of ``rs``, positive and negative."""
    return frozenset(rs.positive_roots) | {
        tuple(-x for x in r) for r in rs.positive_roots}


def root_string(rs, alpha, beta):
    """The alpha-string through beta: largest p, q with beta - p*alpha
    and beta + q*alpha both roots of ``rs``.

    Undefined (and rejected) for beta = +-alpha.
    """
    neg = tuple(-x for x in alpha)
    if beta == alpha or beta == neg:
        raise ValueError("root string through +-alpha is undefined")
    roots = all_roots(rs)
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
    if tuple(map(add, alpha, beta)) not in all_roots(rs):
        return Fraction(0)
    p, q = root_string(rs, alpha, beta)
    return Fraction(q * (p + 1), 2) * ck_inner(rs.scale, alpha, alpha)


class Triple(namedtuple("Triple", "alpha beta gamma value klass")):
    """A root triple {alpha, beta, gamma = alpha + beta} of positive roots
    with its symbol value and vertical class."""

    __slots__ = ()


# Which of (alpha, beta, gamma) are vertical, per class; any other
# pattern breaks the Z/2 grading of the fibration.
_KLASS = {(True, True, True): "vvv", (True, False, False): "vhh",
          (False, True, False): "vhh", (False, False, True): "hvh-transport"}


def triple_scan(fib):
    """Every root triple of ``fib``, by a scan of all positive-root pairs.

    The value is twice ``structure_constant_sq`` of the summand pair, and
    the class is read off ``fib.vertical_roots``: 'vvv' when all three
    roots are vertical, 'vhh' when one summand is, and 'hvh-transport'
    when the two horizontal summands bracket into a vertical root.
    """
    rs = fib.root_system
    vertical = set(fib.vertical_roots)
    out = []
    for alpha, beta in combinations(rs.positive_roots, 2):
        value = 2 * structure_constant_sq(rs, alpha, beta)
        if value:
            gamma = tuple(map(add, alpha, beta))
            pattern = tuple(r in vertical for r in (alpha, beta, gamma))
            if pattern not in _KLASS:
                raise AssertionError("unexpected vertical pattern in triple"
                                     " {} {} {}".format(alpha, beta, gamma))
            out.append(Triple(alpha, beta, gamma, value, _KLASS[pattern]))
    return out


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


def gram_products(gram, generators):
    """W_jk = g_j'G g_k over integer rows g, one fresh double sum each."""
    return [[sum(x * sum(c * y for c, y in zip(row, h))
                 for x, row in zip(g, gram))
             for h in generators] for g in generators]


def inverse_base_form(fib_family):
    """((W, w, factor), den): the base's form by way of G's Gram inverse.
    Each spherical generator's fundamental-weight coefficients b give its
    integer simple-root row g = b.N over den, N and den from the
    fraction-free inverse; then W = (g_j'G g_k), w_j = den*sum_i g_ji G_ii
    and factor = scale/den**2, so W and w are den**2 times, and factor
    1/den**2 times, those of the form read off the ambient weights."""
    family = fib_family.root_family
    gram = _simple_gram(family)
    coeffs, den = _fundamental_coefficients(gram)
    rows = [[sum(c * n[i] for c, n in zip(b, coeffs)) for i in range(len(b))]
            for b in kramer_basis(fib_family)]
    linear = [den * sum(x * row[i] for i, (x, row) in enumerate(zip(g, gram)))
              for g in rows]
    return ((gram_products(gram, rows), linear,
             build_root_system(family).scale / (den * den)), den)


def highest_short_root_casimir(positive_roots, scale):
    """Casimir of the highest short root theta_s of one simple system,
    given by its positive roots in ambient coordinates, at CK scale
    ``scale``: the largest scale*<r, r + 2*delta> over the shortest
    positive roots r, 2*delta their sum.  Every other short root lies
    below theta_s by a sum of positive roots, so <r, 2*delta> peaks
    there."""
    two_delta = [sum(col) for col in zip(*positive_roots)]
    short = min(sum(x * x for x in r) for r in positive_roots)
    return max(scale * sum(x * (x + d) for x, d in zip(r, two_delta))
               for r in positive_roots if sum(x * x for x in r) == short)


@lru_cache(maxsize=None)
def _inverse_gram(simple):
    """The rows of G^-1, G the Gram matrix of ``simple``: one Fraction
    solve per unit vector (G is symmetric, so columns are rows)."""
    gram = [[sum(x * y for x, y in zip(a, b)) for b in simple]
            for a in simple]
    size = len(simple)
    return tuple(tuple(solve_linear(gram, [int(i == j) for i in range(size)]))
                 for j in range(size))


def simple_coordinates(rs, alpha):
    """k with alpha = sum k_i alpha_i, from the Fraction solve: k is G^-1
    applied to the dot products of alpha with the simple roots."""
    dots = [sum(x * y for x, y in zip(s, alpha)) for s in rs.simple_roots]
    return [sum(c * d for c, d in zip(row, dots))
            for row in _inverse_gram(rs.simple_roots)]


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


def strongly_orthogonal_sums(fib):
    """Partial sums gamma_1, gamma_1 + gamma_2, ... of Harish-Chandra's
    strongly orthogonal roots, ambient integer weights.

    The horizontal roots are taken in decreasing <root, 2*delta>, and a
    root is kept when it is orthogonal to every kept root and its sum
    with each kept root is not a root.  For CP^n, the spheres,
    Sp(n)/U(n) and SO(2n)/U(n) these sums generate the spherical
    weights (Schlichtkrull, *Math. Scand.* 54, 1984); on the split
    G2/SO(4) they are not dominant.
    """
    rs = fib.root_system
    two_delta = tuple(map(sum, zip(*rs.positive_roots)))

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    kept = []
    for root in sorted(fib.horizontal_roots, key=lambda r: -dot(r, two_delta)):
        if all(dot(root, g) == 0
               and tuple(map(add, root, g)) not in all_roots(rs)
               for g in kept):
            kept.append(root)
    return list(accumulate(kept, lambda a, b: tuple(map(add, a, b))))


def solved_grades(family):
    """{alpha: k_n} over the positive roots of a fibration family, in
    order, k_n the coefficient on the last simple root alpha_n, from the
    Fraction solve ``simple_coordinates``."""
    rs = build_root_system(family.root_family)
    return {r: simple_coordinates(rs, r)[-1] for r in rs.positive_roots}


def pair_sum_split(family):
    """(vertical, horizontal, fiber simple roots) of a fibration family by
    search, each in the order of the positive roots: vertical is k_n even
    by the Fraction solve, and the fiber's simple roots are the vertical
    roots that are not a sum of two vertical roots."""
    grades = solved_grades(family)
    vertical = tuple(r for r, k in grades.items() if k % 2 == 0)
    horizontal = tuple(r for r in grades if r not in vertical)
    sums = {tuple(map(add, a, b)) for a, b in combinations(vertical, 2)}
    return vertical, horizontal, tuple(r for r in vertical if r not in sums)


def value_at_u(poly, u):
    """The ``ScalPoly`` scal(t) at u = t**2 > 0, straight off (a, c, e, d)."""
    u = Fraction(u)
    if u <= 0:
        raise ValueError("u = t**2 must be positive")
    return (poly.a + poly.c * u + poly.e * u * u) / (poly.d * u)


def value_at_t(poly, t):
    """The ``ScalPoly`` scal(t) at a nonzero rational t."""
    t = Fraction(t)
    return value_at_u(poly, t * t)


def least_multiple_above(value, target):
    """The least k >= 1 with value(k) > target, for a ``value`` rising
    in k, by trying k = 1, 2, ... in turn: its cost grows with k."""
    k = 1
    while value(k) <= target:
        k += 1
    return k


def gap_quadratic(fib, mu, phi):
    """Coefficients (c0, c1, c2) of c0 + c1*u + c2*u**2 in u = t**2.

    It is d*(m-1)*u*(scal(t)/(m-1) - mu - (1/u - 1)*phi), so its sign
    at any u > 0 says which side of the curve mu + (1/t**2 - 1)*phi
    the normalized scalar curvature lies on; at phi = 0 its root is
    where scal(t)/(m-1) meets the constant mu.  It is concave, since
    ``fib.scal`` certifies E < 0.  Read off the Fractions of
    ``fib.scal``, apart from the integer form ``fib.gap``.
    """
    poly = fib.scal
    scale = poly.d * (fib.m_total - 1)
    return (poly.a - scale * phi, poly.c - scale * (mu - phi), poly.e)


def roots_in_unit_interval(c0, c1, c2):
    """Number of distinct roots in (0, 1) of c0 + c1*u + c2*u**2, c2 < 0.

    The quadratic is positive exactly strictly between its roots, which
    straddle the vertex v.  So the discriminant, the signs at 0 and 1
    and the side of v on which 0 and 1 lie place each root.
    """
    disc = c1 * c1 - 4 * c2 * c0
    vertex = Fraction(-c1) / (2 * c2)
    if disc < 0:
        return 0
    if disc == 0:
        return int(0 < vertex < 1)
    at_one = c0 + c1 + c2
    # The lower root is above 0 when 0 lies left of both roots, and
    # below 1 when 1 lies between them or right of both.
    low = c0 < 0 < vertex and (at_one > 0 or vertex < 1)
    # The upper root is above 0 when 0 lies between the roots or left
    # of both, and below 1 when 1 lies right of both.
    high = (c0 > 0 or vertex > 0) and at_one < 0 and vertex < 1
    return low + high


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
    u = fraction_surd(u)
    return (u * (u * f2 + f1) + f0).sign() < 0


def _split_by_odd_trial_division(n):
    """n = s*s*d with d squarefree, dividing by 2 and every odd number."""
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
    root = isqrt(n)
    if root * root == n:
        return s * root, d
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
    root = isqrt((x.numerator * scale * scale) // x.denominator)
    return Fraction(root, scale), Fraction(root + 1, scale)


def _fraction_float_from_bounds(lo, hi):
    val = float((lo + hi) / 2)
    return val, float(hi - lo) / 2 + abs(val) * 2.0 ** -52 + 2.0 ** -1074


class FractionSurd:
    """(p + q*sqrt(d))/r with Fraction p, q, r: every operation through
    Fraction arithmetic and rational enclosures.  Sums and products are
    the field arithmetic ``QuadraticSurd`` does not have; the tests
    evaluate residuals and margins of its values here."""

    def __init__(self, p, q=0, r=1, d=0):
        p, q, r = Fraction(p), Fraction(q), Fraction(r)
        s, d = _split_by_odd_trial_division(int(d))
        q = q * s
        if d == 1:
            p, q, d = p + q, Fraction(0), 0
        if r < 0:
            p, q, r = -p, -q, -r
        if q == 0:
            d = 0
        self.p, self.q, self.r, self.d = p, q, r, d

    def _coerce(self, other):
        if isinstance(other, FractionSurd):
            return other
        return FractionSurd(other)

    def __add__(self, other):
        other = self._coerce(other)
        return FractionSurd(self.p * other.r + other.p * self.r,
                            self.q * other.r + other.q * self.r,
                            self.r * other.r, self.d or other.d)

    def __mul__(self, other):
        other = self._coerce(other)
        d = self.d or other.d
        return FractionSurd(self.p * other.p + self.q * other.q * d,
                            self.p * other.q + self.q * other.p,
                            self.r * other.r, d)

    __radd__ = __add__
    __rmul__ = __mul__

    def sign(self):
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return 0 if p == 0 else (1 if p > 0 else -1)
        if p == 0 or (p > 0) == (q > 0):
            return 1 if q > 0 else -1
        lhs, rhs = p * p, q * q * d
        if lhs == rhs:
            return 0
        return (1 if p > 0 else -1) if lhs > rhs else (1 if q > 0 else -1)

    def cmp(self, other):
        other = self._coerce(other)
        if self.d == other.d or self.d == 0 or other.d == 0:
            return (self + other * -1).sign()
        bits = 64
        while True:
            lo1, hi1 = self.bounds(bits)
            lo2, hi2 = other.bounds(bits)
            if hi1 < lo2:
                return -1
            if hi2 < lo1:
                return 1
            bits *= 2

    def bounds(self, bits=64):
        if self.d == 0:
            v = self.p / self.r
            return v, v
        lo_s, hi_s = sqrt_bounds(Fraction(self.d), bits)
        if self.q < 0:
            lo_s, hi_s = hi_s, lo_s
        return ((self.p + self.q * lo_s) / self.r,
                (self.p + self.q * hi_s) / self.r)

    def sqrt_to_float(self):
        bits = 96
        lo, hi = self.bounds(bits)
        if hi < 0:
            raise ValueError("square root of negative surd")
        lo_r, _ = sqrt_bounds(max(lo, Fraction(0)), bits)
        _, hi_r = sqrt_bounds(hi, bits)
        if (hi_r - lo_r) * 10**12 > 1:
            raise AssertionError("presentation error exceeded the bound")
        return _fraction_float_from_bounds(lo_r, hi_r)

    def __str__(self):
        if self.d == 0:
            return str(self.p / self.r)
        num = "{}{}{}*sqrt({})".format(
            self.p, "+" if self.q >= 0 else "-", abs(self.q), self.d)
        return num if self.r == 1 else "({})/{}".format(num, self.r)


def fraction_surd(x):
    """The oracle's copy of a ``QuadraticSurd`` x."""
    return FractionSurd(x.p, x.q, x.r, x.d)
