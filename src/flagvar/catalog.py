"""What the paper states, and where that statement is known to hold.

flagvar derives every quantity itself: scal(t) by assembly over root
triples (``curvature``), eigenvalues as Casimir values (``spectra``)
and instants as exact surds (``bifurcation``).  This module is the one
place that holds the catalogued ("as printed") versions of those
quantities, the hand-stated first eigenvalues, the ledger of known
discrepancies, and the agreement pattern each catalogued formula is
known to have.  It imports the derived modules and none of them imports
it: nothing here feeds a computation, and a disagreement is reported,
never patched.

The known discrepancies:

- scal(t).  The catalogued closed forms agree with the assembly
  coefficient by coefficient for su (every n), g2 and so-odd at n=2.
  For so-odd at n>=4 the catalogued numerator is missing a quarter of
  the fiber-internal bracket term (one of the four fiber triples per
  index triple; the fiber has none at n=2), and for sp / so-even the
  catalogued t**2 coefficient is the base dimension where the assembly
  forces the horizontal summand count, half of it.  Two facts pin the
  assembled side down independently of any closed form: the t**2
  coefficient of any fiber-scaling variation is the number of
  horizontal summands, and at t=1 the value must be (dim G + rank)/4,
  the normal metric's curvature.
- Instants.  The so-odd sequence radicand comes out four times the
  derived one past the first index, and the so-odd threshold is the
  instant of the catalogued scalar curvature, so it agrees only at
  n=2.  The g2 formula differs whenever both indices are positive: its
  cross coefficient reads 33 where the defining equation forces 66.
  sp and so-even have no catalogued sequence.
- The sp first flag eigenvalue.  The catalogued polynomial halves the
  Casimir's p_{n-1} p_n cross term, so its minimum is 1 where the
  Casimir minimum is n/(n+1), and the catalogued statement
  (4n-1)/(4(n+1)) is neither.
- The so-odd dominance system has a sign slip in one row.
- The first fiber eigenvalue phi1 = 1 is the fiber's own; under G's
  form, which the canonical variation puts on the fiber, it is smaller.

``audit`` is the check list behind ``flagvar verify``.
"""

from fractions import Fraction

from .bifurcation import (degeneracy_instants, instant_base, morse_index,
                          multiplicity_lower_bound, rigidity_threshold)
from .curvature import ScalPoly, su_triple_census
from .rootsys import FamilyTag
from .spectra import (_class_one_points, _first_entries, _simple_gram,
                      base_spectrum, base_spectrum_first, flag_minimum,
                      is_dominant_class_one)
from .surd import QuadraticSurd
from .variation import gap_certificate

LEDGER_GLOBAL = [
    "catalogued bracket table for the Weyl basis lists the [A,S] pair "
    "twice where the first line is the [A,A] pair; only squared "
    "constants are used here, so no count is affected",
    "catalogued first fiber eigenvalue phi1 = 1 is each fiber's "
    "intrinsic value; the canonical variation puts G's form on the fiber, "
    "and the derived value under it (su n=2: 2/3) is used throughout",
]

LEDGER = {
    "su": [
        "catalogued triple-symbol passage lists the same summand three "
        "times where the three distinct summands are meant; every count "
        "is unaffected",
        "catalogued decimal for the first instant at n=2 reads 0.46852; "
        "the exact surd evaluates to 0.468556",
    ],
    "so-odd": [
        "catalogued scalar-curvature numerator is missing a quarter of "
        "the fiber-internal bracket term (one of the four fiber triples "
        "per index triple); the fiber has no such triples at n=2, so "
        "the identity holds there and fails for n>=4; assembled "
        "coefficients are used throughout",
        "catalogued instant-sequence radicand is 4x the derived value "
        "for every index past the first; the threshold formula agrees "
        "only at n=2, since for n>=4 it is the instant of the catalogued "
        "scalar curvature",
        "one catalogued dominance row of the flag eigenvalue system "
        "drops a minus sign; witness (1,1,1,3) at rank 4 passes the "
        "catalogued system yet is not dominant",
    ],
    "sp": [
        "catalogued scalar-curvature t^2 coefficient equals the full "
        "base dimension where the assembly forces the horizontal "
        "summand count (half of it); assembled coefficients are used "
        "throughout",
        "catalogued first flag eigenvalue (4n-1)/(4(n+1)) matches "
        "neither the minimum 1 of the catalogued eigenvalue polynomial "
        "nor the Casimir minimum n/(n+1), both attained at (1,2,...,2,1); "
        "the catalogued polynomial halves the Casimir's p_{n-1}p_n cross "
        "term, and the Casimir values are used throughout",
    ],
    "so-even": [
        "catalogued scalar-curvature t^2 coefficient equals the full "
        "base dimension where the assembly forces the horizontal "
        "summand count (half of it); assembled coefficients are used "
        "throughout",
        "catalogued flag eigenvalue prefactor 1/(2n-1) corrected to "
        "1/(2(n-1)); the catalogued prefactor does not give first "
        "eigenvalue 1",
    ],
    "g2": [
        "catalogued instant-sequence cross coefficient reads 33 where "
        "the defining equation gives 66; entries with both indices "
        "positive disagree",
    ],
}

# Hand-stated first flag eigenvalue mu_1(n) and first base eigenvalue
# beta_1(n): independent checks on flag_minimum and base_spectrum_first.
_MU1 = {
    "su": lambda n: Fraction(1),
    "so-odd": lambda n: Fraction(n, 2 * n - 1),
    # <e1+e2, e1+e2+2*delta> = 4n, times the C_n scale 1/(4(n+1)).
    "sp": lambda n: Fraction(n, n + 1),
    "so-even": lambda n: Fraction(1),
    "g2": lambda n: Fraction(1, 2),
}

_BETA1 = {
    "su": lambda n: Fraction(1),
    "so-odd": lambda n: Fraction(n, 2 * n - 1),
    "sp": lambda n: Fraction(1),
    "so-even": lambda n: Fraction(1),
    "g2": lambda n: Fraction(7, 6),
}


# ---------------------------------------------------------------------------
# Scalar curvature.

def scal_closed_form(family):
    """Catalogued closed-form coefficients of scal(t) per family."""
    n = family.n
    if family.kind == "su":
        return ScalPoly(a=Fraction(-2 * n + n * n * (n + 1)),
                        c=Fraction(4 * n * (n + 1)),
                        e=Fraction(n * (1 - n)),
                        d=Fraction(4 * (n + 1)))
    if family.kind == "so-odd":
        return ScalPoly(a=Fraction(5 * n**3 - 7 * n**2 + 2 * n),
                        c=Fraction(8 * n**2 - 4 * n),
                        e=Fraction(-2 * n**2 + 2 * n),
                        d=Fraction(4 * (2 * n - 1)))
    if family.kind == "sp":
        return ScalPoly(a=Fraction(5 * n**3 + 9 * n**2 - 14 * n),
                        c=Fraction(24 * n**3 + 48 * n**2 + 24 * n),
                        e=Fraction(-2 * n**3 + 2 * n),
                        d=Fraction(24 * (n + 1)))
    if family.kind == "so-even":
        return ScalPoly(a=Fraction(5 * n**2 + 2 * n),
                        c=Fraction(24 * n**2 - 24 * n),
                        e=Fraction(-2 * n**2 + 4 * n),
                        d=Fraction(24))
    return ScalPoly(a=Fraction(2), c=Fraction(12),
                    e=Fraction(-2), d=Fraction(3))


def _scal_identity_expected(kind, n):
    """Where the catalogued closed form matches the assembled one.

    The so-odd form drops the fiber-internal bracket term (absent at
    n=2), and the sp / so-even forms carry a doubled t^2 coefficient,
    so agreement there would itself be a bug.
    """
    if kind == "so-odd":
        return n == 2
    return kind in ("su", "g2")


# ---------------------------------------------------------------------------
# Instant sequences and thresholds, as exact u = t**2.

def _root_plus(f, g):
    """sqrt(f) + g as a surd, for rationals f >= 0 and g."""
    return QuadraticSurd(g, Fraction(1, f.denominator), 1,
                         f.numerator * f.denominator)


def _su_sequence(n, q):
    f = Fraction(
        4 * n**6 * q**2
        + n**5 * (8 * q**3 + 8 * q**2 - 8 * q + 1)
        + 4 * n**4 * (q**4 + 4 * q**3 - 3 * q**2 - 4 * q + 1)
        + n**3 * (8 * q**4 - 8 * q**3 - 24 * q**2 + 5)
        + n**2 * (-4 * q**4 - 16 * q**3 + 4 * q**2 + 8 * q + 6)
        + 8 * n * q**2 * (-q**2 + q + 1)
        + 4 * q**4,
        n**2 * (n - 1)**2)
    g = Fraction(2 * (n**3 * q + n**2 * (q**2 + q - 1)
                      + n * (q**2 - q - 1) - q**2),
                 (n - 1) * n)
    return _root_plus(f, -g)


def _su_threshold(n):
    inner = Fraction(4 * n**4 + 17 * n**3 + 26 * n**2 + 16 * n + 4, n**2)
    return _root_plus(inner, -Fraction(2 * (n + 1)**2, n))


def _so_odd_sequence(n, q):
    f = Fraction(
        10 * n**5 - 8 * n**4 + 2 * n**3
        + (4 * n**4 - 4 * n**2 + 1) * q**4
        + (16 * n**5 - 8 * n**4 - 16 * n**3 + 8 * n**2 + 4 * n - 2) * q**3
        + (16 * n**6 - 16 * n**5 - 28 * n**4 + 24 * n**3
           + 8 * n**2 - 8 * n + 1) * q**2
        + (-32 * n**5 + 32 * n**4 + 8 * n**3 - 16 * n**2 + 4 * n) * q,
        (n - 1)**2 * n**2)
    g = Fraction(-4 * n**3 * q - 2 * n**2 * q**2 + 2 * n**2 * q + 4 * n**2
                 + 2 * n * q - 2 * n + q**2 - q,
                 2 * (n - 1) * n)
    return _root_plus(f, g)


def _so_odd_threshold(n):
    return _root_plus(Fraction(8 * n**2 + 5 * n - 2, 2), Fraction(-2 * n))


def _g2_sequence(r, s):
    inner = (-66 * r * r - 33 * r * s - 99 * r
             - 22 * s * s - 55 * s + 24)
    return _root_plus(Fraction(inner * inner + 64, 64), Fraction(inner, 8))


def cross_check_closed_forms(fib, instants):
    """Compare solved instants against the catalogued sequence formulas.

    Each row pairs a solved t with the catalogued one for its index and
    records whether their u = t**2 are equal as exact surds, with a
    note on the known cause where a row disagrees.  Families without a
    catalogued sequence return an empty report.
    """
    family = fib.family
    kind, n = family.kind, family.n
    rows = []
    if kind == "su":
        for q, inst in enumerate(instants, start=1):
            u = _su_threshold(n) if q == 1 else _su_sequence(n, q)
            rows.append(_check_row((q,), inst, u))
    elif kind == "so-odd":
        for q, inst in enumerate(instants, start=1):
            u = _so_odd_threshold(n) if q == 1 else _so_odd_sequence(n, q)
            row = _check_row((q,), inst, u)
            if not row["agree"] and q > 1:
                row["note"] = "catalogued radicand is 4x the derived value"
            rows.append(row)
    elif kind == "g2":
        if instants:
            cutoff = max(inst.beta for inst in instants)
            labels = {e.value: e.label for e in base_spectrum(family, cutoff)}
            for inst in instants:
                for r, s in labels[inst.beta]:
                    row = _check_row((r, s), inst, _g2_sequence(r, s))
                    if not row["agree"] and r * s != 0:
                        row["note"] = ("catalogued cross coefficient 33 "
                                       "where the defining equation gives 66")
                    rows.append(row)
    return rows


def _check_row(label, inst, u):
    return {
        "label": label,
        "solved": inst.t,
        "catalogued": u.sqrt_to_float(bits=96)[0],
        "agree": inst.u == u,
        "note": "",
    }


def _expected_cross_check(kind, n, report):
    """The agreement pattern the catalogued formulas are known to have.

    The catalogued so-odd threshold is the instant solved from the
    catalogued scalar curvature, so it agrees exactly where that does.
    """
    if kind == "su":
        return all(row["agree"] for row in report)
    if kind == "so-odd":
        head = [row for row in report if row["label"] == (1,)]
        tail = [row for row in report if row["label"] != (1,)]
        return (all(row["agree"] == _scal_identity_expected(kind, n)
                    for row in head)
                and all(not row["agree"] for row in tail))
    if kind == "g2":
        return all(row["agree"] == (row["label"][0] * row["label"][1] == 0)
                   for row in report)
    return report == []


# ---------------------------------------------------------------------------
# Flag eigenvalue statements.

def _catalogued_c_gram(n):
    """Numerator form of the catalogued sp-family eigenvalue polynomial.

    Over the denominator 4(n+1): diagonal (2, ..., 2, 4) and -1 next to
    it, which halves the Casimir's p_{n-1} p_n cross term.
    """
    return tuple(tuple(4 if i == j == n - 1 else 2 if i == j
                       else -1 if abs(i - j) == 1 else 0
                       for j in range(n)) for i in range(n))


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
        lambda c: list(_class_one_points(
            _simple_gram(family), Fraction(1, 4 * (n + 1)), c,
            form=_catalogued_c_gram(n)).items()), 1)[0]
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


# ---------------------------------------------------------------------------
# The verify audit.

def audit(fib):
    """The ordered verify checks for one fibration, as (name, passed).

    Derived values are checked against the hand-stated ones above, the
    bifurcation picture against its invariants, and each catalogued
    formula against the agreement pattern it is known to have.
    """
    kind, n = fib.family.kind, fib.family.n
    checks = [("scal-closed-form-pattern",
               fib.scal.same_function(scal_closed_form(fib.family))
               == _scal_identity_expected(kind, n))]
    if kind == "su":
        checks.append(("triple-census",
                       su_triple_census(fib) == (n**3 - 3 * n**2 + 2 * n,
                                                 2 * n * (n - 1),
                                                 n * (n - 1))))
    checks.append(("flag-minimum",
                   flag_minimum(fib.family.root_family).value
                   == _MU1[kind](n)))
    checks.append(("base-minimum",
                   base_spectrum_first(fib.family, 1)[0].value
                   == _BETA1[kind](n)))
    checks.append(("gap-certificate", gap_certificate(fib)["holds"]))

    threshold = rigidity_threshold(fib)
    checks.append(("threshold-in-unit-interval",
                   threshold.u.sign() > 0 and threshold.u < 1))

    t_min = Fraction(11, 100)
    instants = degeneracy_instants(fib, t_min)
    base = instant_base(fib, t_min)
    checks.append(("instants-bifurcate",
                   bool(instants)
                   and all(inst.is_bifurcation for inst in instants)))
    checks.append(("morse-rigid-above-threshold",
                   morse_index(fib, base, 1) == 0))
    samples = [Fraction(95, 100), Fraction(7, 10), Fraction(1, 2),
               Fraction(3, 10), Fraction(3, 20)]
    indices = [morse_index(fib, base, t) for t in samples]
    checks.append(("morse-nondecreasing",
                   all(a <= b for a, b in zip(indices, indices[1:]))))
    if len(instants) >= 2:
        # The float t's only propose mid; exact surd order places it.
        mid = Fraction(round((instants[0].t + instants[1].t) * 5e5), 10**6)
        checks.append(("three-solutions-between-instants",
                       instants[1].u < mid * mid < instants[0].u
                       and multiplicity_lower_bound(fib, base, mid) == 3))
    checks.append(("one-solution-at-one",
                   multiplicity_lower_bound(fib, base, 1) == 1))

    report = cross_check_closed_forms(fib, instants)
    checks.append(("closed-form-cross-check",
                   _expected_cross_check(kind, n, report)))

    if kind == "sp":
        cn = cn_first_eigenvalue_report(n)
        checks.append(("sp-first-eigenvalue-discrepancy",
                       cn["formula_min"] == 1
                       and cn["casimir_min"] == _MU1[kind](n)
                       and cn["stated"] not in (cn["formula_min"],
                                                cn["casimir_min"])))
    if kind == "so-odd":
        bn = bn_dominance_row_report(max(n, 4))
        checks.append(("dominance-row-witness",
                       bn["catalogued_accepts"] and not bn["dominant"]))
    return checks
