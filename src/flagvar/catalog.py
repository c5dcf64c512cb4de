"""What the paper states, and where that statement is known to hold.

flagvar derives every quantity itself: scal(t) from Casimir sums over
the roots (``curvature``), eigenvalues as Casimir values (``spectra``)
and instants as exact surds (``bifurcation``).  This module is the one
place that holds the catalogued ("as printed") versions of those
quantities.  ``CATALOGUE`` keeps one ``Catalogued`` record per family:
its closed forms, its hand-stated first eigenvalues, where each
statement is known to agree with the derivation, and its ledger, whose
strings are the one statement of each known discrepancy.  It imports
the derived modules and none of them imports it: nothing here feeds a
computation, and a disagreement is reported, never patched.

``audit`` is the check list behind ``flagvar verify``; among its checks,
``su_triple_census`` reads the su triple counts off scal(t), to be
checked against their stated counts.
With ``fibration``, this is the only module that names a fibration kind.
"""

from collections import namedtuple
from fractions import Fraction

from .bifurcation import (degeneracy_instants, instant_base, morse_index,
                          multiplicity_lower_bound)
from .curvature import ScalPoly
from .rootsys import FamilyTag
from .spectra import (_form_value, flag_minimum, flag_spectrum,
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


class Catalogued(namedtuple(
        "Catalogued", "scal mu1 beta1 instant agrees note ledger")):
    """What the paper states for one family, and where it holds.

    ``scal(n)`` is the closed-form ScalPoly; ``mu1(n)`` and ``beta1(n)``
    the hand-stated first flag and base eigenvalues, independent checks
    on flag_minimum and on the first entry of the audit's instant base.
    ``instant(n, label)`` is the catalogued u = t**2 for the base weight
    ``label``, with (1,) the threshold; it is None where no sequence is
    catalogued.
    ``agrees(n, label)`` says whether that statement matches the
    derivation, label None standing for scal(t); ``note`` is the known
    cause of a disagreeing sequence row; ``ledger`` the discrepancies.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Instant sequences and thresholds, as exact u = t**2.

def _root_plus(f, g):
    """sqrt(f) + g as a surd, for rationals f >= 0 and g."""
    return QuadraticSurd(g.numerator * f.denominator, g.denominator,
                         g.denominator * f.denominator,
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


CATALOGUE = {
    "su": Catalogued(
        scal=lambda n: ScalPoly(a=Fraction(-2 * n + n * n * (n + 1)),
                                c=Fraction(4 * n * (n + 1)),
                                e=Fraction(n * (1 - n)),
                                d=Fraction(4 * (n + 1))),
        mu1=lambda n: Fraction(1),
        beta1=lambda n: Fraction(1),
        instant=lambda n, label: (_su_threshold(n) if label == (1,)
                                  else _su_sequence(n, *label)),
        agrees=lambda n, label: True,
        note="",
        ledger=[
            "catalogued triple-symbol passage lists the same summand three "
            "times where the three distinct summands are meant; every count "
            "is unaffected",
            "catalogued decimal for the first instant at n=2 reads 0.46852; "
            "the exact surd evaluates to 0.468556",
        ]),
    # The scal numerator drops the fiber-internal bracket term, which is
    # absent at n=2.  Threshold and sequence are both instants of this
    # catalogued scal(t): the threshold as printed, the sequence once
    # its radicand is divided by 4.  So past n=2 the two agree with the
    # derivation nowhere, and "4x the derived radicand" holds at n=2 only.
    "so-odd": Catalogued(
        scal=lambda n: ScalPoly(a=Fraction(5 * n**3 - 7 * n**2 + 2 * n),
                                c=Fraction(8 * n**2 - 4 * n),
                                e=Fraction(-2 * n**2 + 2 * n),
                                d=Fraction(4 * (2 * n - 1))),
        mu1=lambda n: Fraction(n, 2 * n - 1),
        beta1=lambda n: Fraction(n, 2 * n - 1),
        instant=lambda n, label: (_so_odd_threshold(n) if label == (1,)
                                  else _so_odd_sequence(n, *label)),
        agrees=lambda n, label: n == 2 and label in (None, (1,)),
        note="radicand is 4x that of the catalogued scal(t)'s instant",
        ledger=[
            "catalogued scalar-curvature numerator is missing a quarter of "
            "the fiber-internal bracket term (one of the four fiber triples "
            "per index triple); the fiber has no such triples at n=2, so "
            "the identity holds there and fails for n>=4; assembled "
            "coefficients are used throughout",
            "catalogued instant-sequence radicand is 4x that of the "
            "catalogued scalar curvature's instant at every index, and that "
            "curvature is the derived one only at n=2; the threshold formula "
            "agrees only at n=2, since for n>=4 it is the instant of the "
            "catalogued scalar curvature",
            "one catalogued dominance row of the flag eigenvalue system "
            "drops a minus sign; witness (1,1,1,3) at rank 4 passes the "
            "catalogued system yet is not dominant",
        ]),
    # The t^2 coefficient is doubled, so agreement would itself be a bug.
    "sp": Catalogued(
        scal=lambda n: ScalPoly(a=Fraction(5 * n**3 + 9 * n**2 - 14 * n),
                                c=Fraction(24 * n**3 + 48 * n**2 + 24 * n),
                                e=Fraction(-2 * n**3 + 2 * n),
                                d=Fraction(24 * (n + 1))),
        # <e1+e2, e1+e2+2*delta> = 4n, times the C_n scale 1/(4(n+1)).
        mu1=lambda n: Fraction(n, n + 1),
        beta1=lambda n: Fraction(1),
        instant=None,
        agrees=lambda n, label: False,
        note="",
        ledger=[
            "catalogued scalar-curvature t^2 coefficient equals the full "
            "base dimension where the assembly forces the horizontal "
            "summand count (half of it); assembled coefficients are used "
            "throughout",
            "catalogued first flag eigenvalue (4n-1)/(4(n+1)) matches "
            "neither the minimum 1 of the catalogued eigenvalue polynomial "
            "nor the Casimir minimum n/(n+1), both attained at (1,2,...,2,1); "
            "the catalogued polynomial halves the Casimir's p_{n-1}p_n cross "
            "term, and the Casimir values are used throughout",
        ]),
    "so-even": Catalogued(
        scal=lambda n: ScalPoly(a=Fraction(5 * n**2 + 2 * n),
                                c=Fraction(24 * n**2 - 24 * n),
                                e=Fraction(-2 * n**2 + 4 * n),
                                d=Fraction(24)),
        mu1=lambda n: Fraction(1),
        beta1=lambda n: Fraction(1),
        instant=None,
        agrees=lambda n, label: False,
        note="",
        ledger=[
            "catalogued scalar-curvature t^2 coefficient equals the full "
            "base dimension where the assembly forces the horizontal "
            "summand count (half of it); assembled coefficients are used "
            "throughout",
            "catalogued flag eigenvalue prefactor 1/(2n-1) corrected to "
            "1/(2(n-1)); the catalogued prefactor does not give first "
            "eigenvalue 1",
        ]),
    # Sequence labels are the base weights (r, s); only the axes agree.
    "g2": Catalogued(
        scal=lambda n: ScalPoly(a=Fraction(2), c=Fraction(12),
                                e=Fraction(-2), d=Fraction(3)),
        mu1=lambda n: Fraction(1, 2),
        beta1=lambda n: Fraction(7, 6),
        instant=lambda n, label: _g2_sequence(*label),
        agrees=lambda n, label: label is None or 0 in label,
        note="catalogued cross coefficient 33 where the defining equation "
             "gives 66",
        ledger=[
            "catalogued instant-sequence cross coefficient reads 33 where "
            "the defining equation gives 66; entries with both indices "
            "positive disagree",
        ]),
}


def scal_closed_form(family):
    """The catalogued closed-form coefficients of scal(t) for a family."""
    return CATALOGUE[family.kind].scal(family.n)


def cross_check_closed_forms(fib, base, instants):
    """Compare solved instants against the catalogued sequence formulas.

    ``instants`` are ``degeneracy_instants(fib, base)``, so each one's
    base weights are the label of its own ``base`` entry; each row
    pairs the solved u = t**2 with the catalogued one for one weight,
    both exact surds, and records whether they are equal.  A row the
    record expects to disagree, other than the threshold's, carries the
    record's note.  Families without a catalogued sequence return an
    empty report.
    """
    n = fib.family.n
    record = CATALOGUE[fib.family.kind]
    if record.instant is None:
        return []
    rows = []
    for entry, inst in zip(base, instants):
        group = entry.label
        # One generator (su, so-odd) labels a value by its one x = (q,).
        for label in group if isinstance(group[0], tuple) else (group,):
            u = record.instant(n, label)
            agree = inst.u == u
            known = not (agree or label == (1,) or record.agrees(n, label))
            rows.append({"label": label, "solved": inst.u, "catalogued": u,
                         "agree": agree, "note": record.note if known else ""})
    return rows


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
    gram = _catalogued_c_gram(n)

    # The polynomial is the Casimir plus p_{n-1} p_n / (2(n+1)) >= 0,
    # so the class-one points up to 1 include all of its own up to 1,
    # among them (1, 2, ..., 2, 1), valued 1.  The first of that one
    # walk is the Casimir minimum.
    walk = flag_spectrum(family, 1)
    value, argmin = min(
        (Fraction(_form_value(gram, p), 4 * (n + 1)), p)
        for entry in walk for p in entry.label)
    stated = Fraction(4 * n - 1, 4 * (n + 1))
    return {
        "formula_min": value,
        "formula_argmin": argmin,
        "casimir_min": walk[0].value,
        "casimir_argmin": walk[0].label[0],
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

def su_triple_census(fib):
    """Ordered triple counts (N1, N2, N3) for the su family: orderings
    of all-vertical triples, of mixed triples with the vertical root in
    a bottom slot, and of those with it on top.

    Every su triple has the symbol value 2*scale = 1/(n+1), so each
    count is a symbol-value sum of ``fib.scal`` over that value: the
    mixed sum is -2e/d, and the all-vertical one (|V| - a/d - mixed)*2/3.
    """
    if fib.family.kind != "su":
        raise ValueError("census is specific to the su family")
    poly, value = fib.scal, 2 * fib.root_system.scale
    mixed = -2 * poly.e / poly.d
    vvv = (len(fib.vertical_roots) - poly.a / poly.d - mixed) * Fraction(2, 3)
    counts = (6 * vvv / value, 4 * mixed / value, 2 * mixed / value)
    if any(count.denominator != 1 for count in counts):
        raise AssertionError("su triple counts are not integers")
    return tuple(count.numerator for count in counts)


def audit(fib):
    """The ordered verify checks for one fibration, as (name, passed).

    Derived values are checked against the family's ``CATALOGUE``
    record: its stated first eigenvalues, and the agreement pattern each
    catalogued formula is known to have.  The bifurcation picture is
    checked against its invariants.
    """
    kind, n = fib.family.kind, fib.family.n
    record = CATALOGUE[kind]
    checks = [("scal-closed-form-pattern",
               fib.scal.same_function(record.scal(n))
               == record.agrees(n, None))]
    if kind == "su":
        checks.append(("triple-census",
                       su_triple_census(fib) == (n**3 - 3 * n**2 + 2 * n,
                                                 2 * n * (n - 1),
                                                 n * (n - 1))))
    checks.append(("flag-minimum",
                   flag_minimum(fib.family.root_family).value
                   == record.mu1(n)))
    # The threshold is the first instant, that of base[0]: inside (0, 1)
    # exactly when base[0] exceeds s(1).
    base = instant_base(fib, Fraction(11, 100))
    instants = degeneracy_instants(fib, base)
    inside = bool(base) and base[0].value > fib.scal_over_m_minus_1(1)
    checks.append(("base-minimum",
                   bool(base) and base[0].value == record.beta1(n)))
    checks.append(("gap-certificate", gap_certificate(fib)["holds"]))
    checks.append(("threshold-in-unit-interval", inside))
    checks.append(("instants-bifurcate",
                   bool(instants)
                   and all(inst.is_bifurcation for inst in instants)))
    # base[0] at s(1) makes t = 1 degenerate, where morse_index raises.
    checks.append(("morse-rigid-above-threshold",
                   inside and morse_index(fib, base, 1) == 0))
    samples = [Fraction(95, 100), Fraction(7, 10), Fraction(1, 2),
               Fraction(3, 10), Fraction(3, 20)]
    indices = [morse_index(fib, base, t) for t in samples]
    checks.append(("morse-nondecreasing",
                   all(a <= b for a, b in zip(indices, indices[1:]))))
    if len(instants) >= 2:
        # The enclosures of t_0 > t_1 only propose mid; exact rationals
        # place it.  A first instant past t = 2 - t_1, a fault, puts mid
        # past 1, where multiplicity_lower_bound raises.
        (lo, _, d), (_, hi, _) = (i.u.sqrt_enclosure() for i in instants[:2])
        mid = Fraction(lo + hi, 2 * d)
        checks.append(("three-solutions-between-instants",
                       mid <= 1 and instants[0].beta
                       < fib.scal_over_m_minus_1(mid * mid)
                       < instants[1].beta
                       and multiplicity_lower_bound(fib, base, mid) == 3))
    checks.append(("one-solution-at-one",
                   multiplicity_lower_bound(fib, base, 1) == 1))

    report = cross_check_closed_forms(fib, base, instants)
    checks.append(("closed-form-cross-check",
                   all(row["agree"] == record.agrees(n, row["label"])
                       for row in report)))

    if kind == "sp":
        cn = cn_first_eigenvalue_report(n)
        checks.append(("sp-first-eigenvalue-discrepancy",
                       cn["formula_min"] == 1
                       and cn["casimir_min"] == record.mu1(n)
                       and cn["stated"] not in (cn["formula_min"],
                                                cn["casimir_min"])))
    if kind == "so-odd":
        bn = bn_dominance_row_report(max(n, 4))
        checks.append(("dominance-row-witness",
                       bn["catalogued_accepts"] and not bn["dominant"]))
    return checks
