"""Command-line surface: queries, verification audit, figure data.

Subcommands: spectrum, scal, instants, morse, figure, verify.  Exact
rationals serialize as "p/q" strings; floats appear only next to their
exact counterparts.  Exit codes: 0 ok, 1 verification failure, 2 usage
error.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .bifurcation import (cross_check_closed_forms, degeneracy_instants,
                          morse_index, multiplicity_lower_bound,
                          rigidity_threshold)
from .curvature import scal_closed_form, scal_wz, su_triple_census
from .fibration import FAMILY_KEYS, FibrationFamily, build_fibration
from .spectra import (_first_entries, base_spectrum, base_spectrum_first,
                      bn_dominance_row_report, cn_first_eigenvalue_report,
                      fiber_spectrum, flag_minimum, flag_spectrum)
from .variation import _beta1, gap_certificate, normalized_scal

_ALIASES = {"a": "su", "b": "so-odd", "c": "sp", "d": "so-even", "g": "g2"}
_DEFAULT_N = {"su": 2, "so-odd": 2, "sp": 3, "so-even": 4, "g2": 2}

_LEDGER_GLOBAL = [
    "catalogued bracket table for the Weyl basis lists the [A,S] pair "
    "twice where the first line is the [A,A] pair; only squared "
    "constants are used here, so no count is affected",
]

_LEDGER = {
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

_FLAG_MIN = {
    "su": lambda n: Fraction(1),
    "so-odd": lambda n: Fraction(n, 2 * n - 1),
    # <e1+e2, e1+e2+2*delta> = 4n, times the C_n scale 1/(4(n+1)).
    "sp": lambda n: Fraction(n, n + 1),
    "so-even": lambda n: Fraction(1),
    "g2": lambda n: Fraction(1, 2),
}


def _frac(x):
    x = Fraction(x)
    return "{}/{}".format(x.numerator, x.denominator)


def _label_str(label):
    if label and isinstance(label[0], tuple):
        return ";".join("(" + ",".join(str(x) for x in t) + ")"
                        for t in label)
    return "(" + ",".join(str(x) for x in label) + ")"


def _build_fib(args):
    kind = _ALIASES.get(args.family, args.family)
    n = args.n if args.n is not None else _DEFAULT_N[kind]
    family = FibrationFamily(kind, n)
    phi1 = Fraction(args.phi1) if args.phi1 is not None else Fraction(1)
    return build_fibration(family, phi1)


def _emit(text, args):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def _parse_window(args):
    t_min = Fraction(args.tmin)
    t_max = Fraction(args.tmax)
    if not (0 < t_min < t_max <= 1):
        raise ValueError("need 0 < tmin < tmax <= 1")
    return t_min, t_max


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_spectrum(args):
    fib = _build_fib(args)
    cutoff = Fraction(args.cutoff)
    totals = flag_spectrum(fib.family.root_family, cutoff)
    bases = base_spectrum(fib.family, cutoff)
    entries = list(totals) + list(bases)
    if args.format == "json":
        payload = {
            "family": fib.family.kind,
            "n": fib.family.n,
            "m": fib.m_total,
            "entries": [{
                "origin": e.origin,
                "value": _frac(e.value),
                "value_float": float(e.value),
                "mult": e.mult if e.mult_known else None,
                "label": e.label,
            } for e in entries],
            "ledger": _LEDGER[fib.family.kind],
        }
        _emit(_json_text(payload), args)
    else:
        rows = [(e.origin, _frac(e.value), float(e.value),
                 e.mult if e.mult_known else "", _label_str(e.label))
                for e in entries]
        _emit(_csv_text(("origin", "value", "value_float", "mult", "label"),
                        rows), args)
    return 0


def cmd_scal(args):
    fib = _build_fib(args)
    wz = scal_wz(fib)
    closed = scal_closed_form(fib.family)
    verdict = "PASS" if wz.same_function(closed) else "FAIL"
    rows = [("wang-ziller", wz), ("closed-form", closed)]
    if args.format == "json":
        payload = {
            "family": fib.family.kind,
            "n": fib.family.n,
            "m": fib.m_total,
            "entries": [{
                "source": name,
                "a": _frac(p.a), "c": _frac(p.c),
                "e": _frac(p.e), "d": _frac(p.d),
            } for name, p in rows],
            "verdict": verdict,
            "ledger": _LEDGER[fib.family.kind],
        }
        _emit(_json_text(payload), args)
    else:
        table = [(name, _frac(p.a), _frac(p.c), _frac(p.e), _frac(p.d),
                  verdict) for name, p in rows]
        _emit(_csv_text(("source", "a", "c", "e", "d", "verdict"), table),
              args)
    return 0 if verdict == "PASS" else 1


def cmd_instants(args):
    fib = _build_fib(args)
    poly = scal_wz(fib)
    t_min = Fraction(args.tmin)
    instants = degeneracy_instants(fib, poly, t_min)
    if args.format == "json":
        payload = {
            "family": fib.family.kind,
            "n": fib.family.n,
            "m": fib.m_total,
            "instants": [{
                "beta": _frac(inst.beta),
                "u": str(inst.u),
                "t": inst.t,
                "t_error": inst.t_error,
                "mult": inst.mult,
                "is_bifurcation": inst.is_bifurcation,
            } for inst in instants],
            "ledger": _LEDGER[fib.family.kind],
        }
        _emit(_json_text(payload), args)
    else:
        rows = [(_frac(inst.beta), str(inst.u), inst.t, inst.t_error,
                 inst.mult, inst.is_bifurcation) for inst in instants]
        _emit(_csv_text(
            ("beta", "u", "t", "t_error", "mult", "is_bifurcation"), rows),
            args)
    return 0


def cmd_morse(args):
    fib = _build_fib(args)
    poly = scal_wz(fib)
    t_min, t_max = _parse_window(args)
    instants = degeneracy_instants(fib, poly, t_min)
    steps = 100
    grid = []
    for i in range(steps + 1):
        t = t_min + (t_max - t_min) * i / steps
        try:
            index = morse_index(fib, poly, instants, t)
        except ValueError:
            index = None
        grid.append((t, index))
    if args.format == "json":
        payload = {
            "family": fib.family.kind,
            "n": fib.family.n,
            "m": fib.m_total,
            "grid": [{"t": float(t), "t_exact": _frac(t), "index": index}
                     for t, index in grid],
            "ledger": _LEDGER[fib.family.kind],
        }
        _emit(_json_text(payload), args)
    else:
        rows = [(float(t), _frac(t), "" if index is None else index)
                for t, index in grid]
        _emit(_csv_text(("t", "t_exact", "index"), rows), args)
    return 0


def _figure_series(fib, poly, t_min, t_max, steps=120):
    """Grid columns for the plot: t, scal/(m-1), constants, curves."""
    norm = normalized_scal(fib, poly)
    constants = [e.value for e in base_spectrum_first(fib.family, 6)]
    mus = [e.value for e in _first_entries(
        lambda c: flag_spectrum(fib.family.root_family, c), 6)]
    phis = [e.value for e in _first_entries(
        lambda c: fiber_spectrum(fib, c), 6)]
    names = ["t", "scal_over_m_minus_1"]
    names += ["const_{}".format(k) for k in range(1, 7)]
    pairs = [(k, j) for k in range(1, 7) for j in range(1, k + 1)]
    names += ["lam_{}_{}".format(k, j) for k, j in pairs]
    rows = []
    for i in range(steps + 1):
        t = t_min + (t_max - t_min) * i / steps
        stretch = 1 / (t * t) - 1
        row = [float(t), float(norm.value_at_t(t))]
        row += [float(c) for c in constants]
        row += [float(mus[k - 1] + stretch * phis[j - 1]) for k, j in pairs]
        rows.append(row)
    return names, rows


def _svg_figure(fib, names, rows, verticals, t_min, t_max):
    width, height = 640, 480
    left, right, top, bottom = 60.0, 620.0, 30.0, 440.0
    constants = [rows[0][i] for i, name in enumerate(names)
                 if name.startswith("const_")]
    y_max = 1.15 * max(constants)
    t_lo, t_hi = float(t_min), float(t_max)

    def sx(t):
        return left + (t - t_lo) / (t_hi - t_lo) * (right - left)

    def sy(v):
        return bottom - v / y_max * (bottom - top)

    def polyline(points, color, dash=""):
        chunks = []
        for chunk in points:
            if not chunk:
                continue
            coords = " ".join("{:.2f},{:.2f}".format(x, y)
                              for x, y in chunk)
            extra = ' stroke-dasharray="{}"'.format(dash) if dash else ""
            chunks.append('<polyline fill="none" stroke="{}"{} '
                          'points="{}"/>'.format(color, extra, coords))
        return chunks

    def segments(col):
        chunk, out = [], []
        for row in rows:
            v = row[col]
            if 0 <= v <= y_max:
                chunk.append((sx(row[0]), sy(v)))
            elif chunk:
                out.append(chunk)
                chunk = []
        out.append(chunk)
        return out

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" '
             'viewBox="0 0 {} {}">'.format(width, height),
             '<rect width="{}" height="{}" fill="white"/>'.format(
                 width, height),
             '<line x1="{0}" y1="{1}" x2="{2}" y2="{1}" '
             'stroke="black"/>'.format(left, bottom, right),
             '<line x1="{0}" y1="{1}" x2="{0}" y2="{2}" '
             'stroke="black"/>'.format(left, top, bottom)]
    for frac_pos in (0.0, 0.5, 1.0):
        t = t_lo + frac_pos * (t_hi - t_lo)
        parts.append('<text x="{:.2f}" y="{:.2f}" font-size="12" '
                     'text-anchor="middle">{:.2f}</text>'.format(
                         sx(t), bottom + 18, t))
        v = frac_pos * y_max
        parts.append('<text x="{:.2f}" y="{:.2f}" font-size="12" '
                     'text-anchor="end">{:.2f}</text>'.format(
                         left - 6, sy(v) + 4, v))
    for inst in verticals:
        if t_lo <= inst.t <= t_hi:
            x = sx(inst.t)
            parts.append('<line x1="{0:.2f}" y1="{1}" x2="{0:.2f}" y2="{2}" '
                         'stroke="#777777" stroke-dasharray="6 4"/>'.format(
                             x, top, bottom))
    for i, name in enumerate(names):
        if name == "t":
            continue
        if name == "scal_over_m_minus_1":
            color = "#cc0000"
        elif name.startswith("const_"):
            color = "#000000"
        else:
            color = "#3366cc"
        parts.extend(polyline(segments(i), color))
    parts.append('<text x="{}" y="20" font-size="14">{} canonical '
                 'variation</text>'.format(left, fib.family.label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure(args):
    fib = _build_fib(args)
    poly = scal_wz(fib)
    t_min, t_max = _parse_window(args)
    names, rows = _figure_series(fib, poly, t_min, t_max)
    if args.format == "svg":
        verticals = degeneracy_instants(fib, poly, t_min)
        _emit(_svg_figure(fib, names, rows, verticals, t_min, t_max), args)
    elif args.format == "json":
        payload = {
            "family": fib.family.kind,
            "n": fib.family.n,
            "m": fib.m_total,
            "grid": {"columns": names, "rows": rows},
            "ledger": _LEDGER[fib.family.kind],
        }
        _emit(_json_text(payload), args)
    else:
        _emit(_csv_text(names, rows), args)
    return 0


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


def _scal_identity_expected(kind, n):
    """Where the catalogued closed form matches the assembled one.

    The so-odd form drops the fiber-internal bracket term (absent at
    n=2), and the sp / so-even forms carry a doubled t^2 coefficient,
    so agreement there would itself be a bug.
    """
    if kind == "so-odd":
        return n == 2
    return kind in ("su", "g2")


def _verify_family(fib, lines):
    kind, n = fib.family.kind, fib.family.n
    tag = "[{} n={}]".format(kind, n)
    checks = []
    poly = scal_wz(fib)
    closed = scal_closed_form(fib.family)
    checks.append(("scal-closed-form-pattern",
                   poly.same_function(closed)
                   == _scal_identity_expected(kind, n)))

    if kind == "su":
        n1, n2, n3 = su_triple_census(fib)
        checks.append(("triple-census",
                       (n1, n2, n3) == (n**3 - 3 * n**2 + 2 * n,
                                        2 * n * (n - 1), n * (n - 1))))

    checks.append(("flag-minimum",
                   flag_minimum(fib.family.root_family).value
                   == _FLAG_MIN[kind](n)))
    checks.append(("base-minimum",
                   base_spectrum_first(fib.family, 1)[0].value
                   == _beta1(fib)))
    checks.append(("gap-certificate", gap_certificate(fib, poly)["holds"]))

    threshold = rigidity_threshold(fib, poly)
    checks.append(("threshold-in-unit-interval",
                   threshold.u.sign() > 0 and threshold.u < 1))

    instants = degeneracy_instants(fib, poly, Fraction(11, 100))
    checks.append(("instants-bifurcate",
                   bool(instants)
                   and all(inst.is_bifurcation for inst in instants)))
    checks.append(("morse-rigid-above-threshold",
                   morse_index(fib, poly, instants, 1) == 0))
    samples = [Fraction(95, 100), Fraction(7, 10), Fraction(1, 2),
               Fraction(3, 10), Fraction(3, 20)]
    indices = [morse_index(fib, poly, instants, t) for t in samples]
    checks.append(("morse-nondecreasing",
                   all(a <= b for a, b in zip(indices, indices[1:]))))
    if len(instants) >= 2:
        mid = Fraction(round((instants[0].t + instants[1].t) * 5e5), 10**6)
        checks.append(("three-solutions-between-instants",
                       multiplicity_lower_bound(fib, instants, mid) == 3))
    checks.append(("one-solution-at-one",
                   multiplicity_lower_bound(fib, instants, 1) == 1))

    report = cross_check_closed_forms(fib.family, instants)
    checks.append(("closed-form-cross-check",
                   _expected_cross_check(kind, n, report)))

    if kind == "sp":
        cn = cn_first_eigenvalue_report(n)
        checks.append(("sp-first-eigenvalue-discrepancy",
                       cn["formula_min"] == 1
                       and cn["casimir_min"] == _FLAG_MIN[kind](n)
                       and cn["stated"] not in (cn["formula_min"],
                                                cn["casimir_min"])))
    if kind == "so-odd":
        bn = bn_dominance_row_report(max(n, 4))
        checks.append(("dominance-row-witness",
                       bn["catalogued_accepts"] and not bn["dominant"]))

    ok = True
    for name, passed in checks:
        lines.append("{} {}: {}".format(tag, name,
                                        "PASS" if passed else "FAIL"))
        ok = ok and passed
    for note in _LEDGER[kind]:
        lines.append("{} ledger: {}".format(tag, note))
    return ok


def cmd_verify(args):
    if args.family is None:
        kinds = list(FAMILY_KEYS)
    else:
        kinds = [_ALIASES.get(args.family, args.family)]
    lines = ["[general] ledger: {}".format(note) for note in _LEDGER_GLOBAL]
    ok = True
    for kind in kinds:
        n = args.n if args.n is not None else _DEFAULT_N[kind]
        phi1 = Fraction(args.phi1) if args.phi1 is not None else Fraction(1)
        fib = build_fibration(FibrationFamily(kind, n), phi1)
        ok = _verify_family(fib, lines) and ok
    lines.append("VERIFY: {}".format("PASS" if ok else "FAIL"))
    _emit("\n".join(lines) + "\n", args)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser assembly.

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="flagvar",
        description="Exact spectral data for canonical variations on "
                    "maximal flag manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)
    family_choices = list(FAMILY_KEYS) + sorted(_ALIASES)

    def add_common(p, family_required=True):
        p.add_argument("--family", choices=family_choices,
                       required=family_required, default=None,
                       help="fibration family (a/b/c/d/g are aliases)")
        p.add_argument("--n", type=int, default=None,
                       help="rank parameter (family-specific default)")
        p.add_argument("--phi1", default=None, metavar="P/Q",
                       help="override the first fiber eigenvalue")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("spectrum", help="total and base spectra to a cutoff")
    add_common(p)
    p.add_argument("--cutoff", default="6", metavar="P/Q")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scal", help="scalar curvature coefficients")
    add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_scal)

    p = sub.add_parser("instants", help="degeneracy instants down to tmin")
    add_common(p)
    p.add_argument("--tmin", default="0.1", metavar="T")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_instants)

    p = sub.add_parser("morse", help="Morse index over a t-grid")
    add_common(p)
    p.add_argument("--tmin", default="0.1", metavar="T")
    p.add_argument("--tmax", default="1", metavar="T")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser("figure",
                       help="plot data: scal/(m-1) against the eigenvalues")
    add_common(p)
    p.add_argument("--tmin", default="0.1", metavar="T")
    p.add_argument("--tmax", default="1", metavar="T")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="run the invariant audit")
    add_common(p, family_required=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print("flagvar: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
