"""Command-line surface: argument parsing and the JSON, CSV and SVG
formatters.  The verify checks come from ``catalog.audit``.

Subcommands: spectrum, scal, instants, morse, figure, verify.  Exact
rationals serialize as "p/q" strings, and a float in a table stands
next to its exact counterpart, except in the figure grid, which is
floats only, each one correctly rounded division of an exact value.
Exit codes: 0 ok, 1 verification or certificate failure, 2 usage error.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import groupby

from .bifurcation import degeneracy_instants, instant_base, morse_index
from .catalog import CATALOGUE, LEDGER_GLOBAL, audit, scal_closed_form
from .fibration import (FAMILY_ALIASES, FAMILY_KEYS, FibrationFamily,
                        build_fibration)
# flag_minimum is unused here but stays bound: the perfbench tracer
# self-test checks that it is wrapped in this namespace too.
from .spectra import base_spectrum, flag_minimum, flag_spectrum  # noqa: F401
from .variation import figure_series


def _frac(x):
    x = Fraction(x)
    return "{}/{}".format(x.numerator, x.denominator)


def _label_str(label):
    return ";".join("(" + ",".join(map(str, x)) + ")" for x in label)


def _rational(args, option):
    """The P/Q text of ``--option`` as a Fraction, None when absent."""
    text = getattr(args, option, None)
    if text is None:
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("--{} {}: zero denominator".format(
            option, text)) from None
    except ValueError:
        raise ValueError("--{} {}: not a rational number".format(
            option, text)) from None


def _build_fib(args, name=None):
    name = name or args.family
    family = FibrationFamily(FAMILY_ALIASES.get(name, name), args.n)
    return build_fibration(family, _rational(args, "phi1"))


def _emit(text, args):
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError("cannot write {}: {}".format(
                out, exc.strerror or exc)) from exc
    else:
        sys.stdout.write(text)


def _json_text(fib, **fields):
    """The family header, then ``fields`` in order, then the ledger."""
    payload = {"family": fib.family.kind, "n": fib.family.n,
               "m": fib.m_total, **fields,
               "ledger": CATALOGUE[fib.family.kind].ledger}
    return json.dumps(payload, indent=2) + "\n"


def _emit_table(fib, args, key, header, rows, **extra):
    """Rows of one table.  In JSON, a list of dicts under ``key``, then
    the ``extra`` fields; in CSV, one line each, a tuple cell written by
    ``_label_str``, with the ``extra`` values as trailing columns."""
    if args.format == "json":
        _emit(_json_text(fib, **{key: [dict(zip(header, row))
                                       for row in rows]}, **extra), args)
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(header) + list(extra))
    writer.writerows([_label_str(x) if isinstance(x, tuple) else x
                      for x in row] + list(extra.values()) for row in rows)
    _emit(buf.getvalue(), args)


def _parse_window(args):
    t_min = _rational(args, "tmin")
    t_max = _rational(args, "tmax")
    if not (0 < t_min < t_max <= 1):
        raise ValueError("need 0 < tmin < tmax <= 1")
    return t_min, t_max


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_spectrum(args):
    fib = _build_fib(args)
    cutoff = _rational(args, "cutoff")
    totals = flag_spectrum(fib.family.root_family, cutoff)
    bases = base_spectrum(fib.family, cutoff)
    _emit_table(fib, args, "entries",
                ("origin", "value", "value_float", "mult", "label"),
                [(origin, _frac(e.value), float(e.value), e.mult, e.label)
                 for origin, entries in (("total", totals), ("base", bases))
                 for e in entries])
    return 0


def cmd_scal(args):
    fib = _build_fib(args)
    wz = fib.scal
    closed = scal_closed_form(fib.family)
    verdict = "PASS" if wz.same_function(closed) else "FAIL"
    rows = [("wang-ziller", wz), ("closed-form", closed)]
    _emit_table(fib, args, "entries", ("source", "a", "c", "e", "d"),
                [(name, _frac(p.a), _frac(p.c), _frac(p.e), _frac(p.d))
                 for name, p in rows], verdict=verdict)
    return 0 if verdict == "PASS" else 1


def cmd_instants(args):
    fib = _build_fib(args)
    instants = degeneracy_instants(
        fib, instant_base(fib, _rational(args, "tmin")))
    _emit_table(fib, args, "instants",
                ("beta", "u", "t", "t_error", "mult", "is_bifurcation"),
                [(_frac(inst.beta), str(inst.u), *inst.u.sqrt_to_float(),
                  inst.mult, inst.is_bifurcation) for inst in instants])
    return 0


def cmd_morse(args):
    fib = _build_fib(args)
    t_min, t_max = _parse_window(args)
    base = instant_base(fib, t_min)
    steps = 100
    grid = []
    for i in range(steps + 1):
        t = t_min + (t_max - t_min) * i / steps
        try:
            index = morse_index(fib, base, t)
        except ValueError:
            index = None
        grid.append((float(t), _frac(t), index))
    _emit_table(fib, args, "grid", ("t", "t_exact", "index"), grid)
    return 0


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

    def polylines(col, color):
        """One <polyline> per run of rows whose value lies in [0, y_max]."""
        for inside, run in groupby(rows, lambda row: 0 <= row[col] <= y_max):
            if inside:
                points = ("{:.2f},{:.2f}".format(sx(row[0]), sy(row[col]))
                          for row in run)
                yield ('<polyline fill="none" stroke="{}" '
                       'points="{}"/>'.format(color, " ".join(points)))

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
    # Instants have u >= t_min**2, and u <= t_max**2 iff beta >= s_max.
    s_max = fib.scal_over_m_minus_1(t_max * t_max)
    for inst in verticals:
        if inst.beta >= s_max:
            x = sx(inst.u.sqrt_to_float()[0])
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
        parts.extend(polylines(i, color))
    parts.append('<text x="{}" y="20" font-size="14">{} canonical '
                 'variation</text>'.format(left, fib.family.names[0]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure(args):
    fib = _build_fib(args)
    t_min, t_max = _parse_window(args)
    names, rows = figure_series(fib, t_min, t_max)
    if args.format == "svg":
        verticals = degeneracy_instants(fib, instant_base(fib, t_min))
        _emit(_svg_figure(fib, names, rows, verticals, t_min, t_max), args)
    elif args.format == "json":
        _emit(_json_text(fib, grid={"columns": names, "rows": rows}), args)
    else:
        _emit_table(fib, args, "grid", names, rows)
    return 0


def cmd_verify(args):
    if args.family is None and args.n is not None:
        raise ValueError("verify --n needs --family")
    families = FAMILY_KEYS if args.family is None else (args.family,)
    lines = ["[general] ledger: {}".format(note) for note in LEDGER_GLOBAL]
    ok = True
    for family in families:
        fib = _build_fib(args, family)
        tag = "[{} n={}]".format(fib.family.kind, fib.family.n)
        for name, passed in audit(fib):
            lines.append("{} {}: {}".format(tag, name,
                                            "PASS" if passed else "FAIL"))
            ok = ok and passed
        lines += ["{} ledger: {}".format(tag, note)
                  for note in CATALOGUE[fib.family.kind].ledger]
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
    family_choices = list(FAMILY_KEYS) + sorted(FAMILY_ALIASES)
    tmin, tmax = ("--tmin", "0.1", "T"), ("--tmax", "1", "T")
    # Per subcommand: name, function, help, own options (name, default,
    # metavar), formats (the first is the default; none for verify),
    # whether --family is required and whether --phi1 is read.
    table = [
        ("spectrum", cmd_spectrum, "total and base spectra to a cutoff",
         [("--cutoff", "6", "P/Q")], ("json", "csv"), True, False),
        ("scal", cmd_scal, "scalar curvature coefficients",
         [], ("json", "csv"), True, False),
        ("instants", cmd_instants, "degeneracy instants down to tmin",
         [tmin], ("json", "csv"), True, True),
        ("morse", cmd_morse, "Morse index over a t-grid",
         [tmin, tmax], ("json", "csv"), True, False),
        ("figure", cmd_figure,
         "plot data: scal/(m-1) against the eigenvalues",
         [tmin, tmax], ("csv", "json", "svg"), True, False),
        ("verify", cmd_verify, "run the invariant audit",
         [], (), False, True),
    ]
    for name, func, text, options, formats, required, phi1 in table:
        p = sub.add_parser(name, help=text)
        p.add_argument("--family", choices=family_choices, required=required,
                       default=None,
                       help="fibration family (a/b/c/d/g are aliases)")
        p.add_argument("--n", type=int, default=None,
                       help="rank parameter (family-specific default)")
        if phi1:
            p.add_argument("--phi1", default=None, metavar="P/Q",
                           help="override the first fiber eigenvalue")
        p.add_argument("--out", default=None, help="write output to a file")
        for option, default, metavar in options:
            p.add_argument(option, default=default, metavar=metavar)
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print("flagvar: {}".format(exc), file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print("flagvar: certificate failed: {}".format(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
