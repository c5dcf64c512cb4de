"""Closed forms that only the tests use, kept as independent oracles.

Import from a test module with ``from oracles import ...``; pytest puts
this directory on the path.
"""

from math import comb

from flagvar.spectra import _form_value, _root_system, _simple_gram


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
