"""Closed forms that only the tests use, kept as independent oracles.

Import from a test module with ``from oracles import ...``; pytest puts
this directory on the path.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from flagvar.catalog import _catalogued_c_gram
from flagvar.rootsys import build_root_system, ck_inner
from flagvar.spectra import _form_value, _simple_gram


def flag_mu(family, p):
    """Casimir value <lam, lam + 2*delta> of lam = sum p_i*alpha_i.

    Since <alpha_i, 2*delta> = |alpha_i|^2, this is the CK scale times
    p'Gp + sum G_ii p_i, with G the integer simple-root Gram matrix.
    """
    if len(p) != family.rank:
        raise ValueError("expected {} coefficients".format(family.rank))
    if any(x < 1 for x in p):
        raise ValueError("class-one coefficients must be >= 1")
    return (build_root_system(family).ck.scale
            * _form_value(_simple_gram(family), p))


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
    return ck_inner(build_root_system(family).ck, lam, shifted)
