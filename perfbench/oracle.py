"""Output oracle for flagvar CLI queries.

Every check here follows from the query's own arguments, from facts about
the root systems, or from consistency within the printed output; nothing
is computed by flagvar.  A check never requires a catalogued value, so a
deliberate fix of a catalogue discrepancy does not turn into a failure.

``classify`` returns (outcome, reason) with outcome one of:

* ``ok``: every check holds;
* ``known``: a catalogued finding shows (a ``scal`` FAIL verdict, or
  ``verify`` exiting 1 on so-odd n >= 4 because only
  ``closed-form-cross-check`` fails) and every check holds;
* ``failed``: a check does not hold.
"""

import csv
import io
import json
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

MAX_T_ERROR = 1e-12
MORSE_STEPS = 100
FIGURE_STEPS = 120
FIGURE_COLUMNS = 2 + 6 + 21

_VERIFY_LINE = re.compile(r"^\[(\S+) n=(\d+)\] (\S+): (PASS|FAIL)$")


class OracleError(Exception):
    pass


def positive_root_count(family, n):
    return {"su": n * (n + 1) // 2, "so-odd": n * n, "sp": n * n,
            "so-even": n * (n - 1), "g2": 6}[family]


def options(argv):
    """Subcommand plus its --key value pairs as a dict."""
    opts = {"sub": argv[0]}
    for key, value in zip(argv[1::2], argv[2::2]):
        opts[key.lstrip("-")] = value
    return opts


def _check(cond, message):
    if not cond:
        raise OracleError(message)


def _records(text, fmt, key):
    """Rows of a json (under ``key``) or csv output as dicts of strings."""
    if fmt == "json":
        payload = json.loads(text)
        return payload, payload[key]
    rows = list(csv.DictReader(io.StringIO(text)))
    return None, rows


def _strictly_increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


def _normalized(poly):
    a, c, e, d = poly
    return a / d, c / d, e / d


def check_scal(opts, rc, text):
    fmt = opts.get("format", "json")
    family, n = opts["family"], int(opts["n"])
    payload, rows = _records(text, fmt, "entries")
    if fmt == "json":
        verdict = payload["verdict"]
        _check(payload["m"] == 2 * positive_root_count(family, n),
               "m does not match the root count")
    else:
        verdicts = {row["verdict"] for row in rows}
        _check(len(verdicts) == 1, "rows disagree on the verdict")
        verdict = verdicts.pop()
    _check(verdict in ("PASS", "FAIL"), "unknown verdict")
    _check(rc == (0 if verdict == "PASS" else 1),
           "exit code {} does not match verdict {}".format(rc, verdict))
    polys = {row["source"]: tuple(Fraction(row[k]) for k in "aced")
             for row in rows}
    _check(set(polys) == {"wang-ziller", "closed-form"}, "missing scal rows")
    a, c, e, d = polys["wang-ziller"]
    # scal at t = 1 is the normal metric's (dim G + rank)/4, dim G = m + rank.
    rank = 2 if family == "g2" else n
    dim_g = 2 * positive_root_count(family, n) + rank
    _check((a + c + e) / d == Fraction(dim_g + rank, 4),
           "wang-ziller row breaks the t=1 identity")
    same = _normalized(polys["wang-ziller"]) == _normalized(polys["closed-form"])
    _check(same == (verdict == "PASS"), "verdict does not match the rows")
    return "known" if verdict == "FAIL" else "ok"


def check_instants(opts, rc, text):
    _check(rc == 0, "exit code {}".format(rc))
    fmt = opts.get("format", "json")
    _, rows = _records(text, fmt, "instants")
    ts = [float(row["t"]) for row in rows]
    errors = [float(row["t_error"]) for row in rows]
    betas = [Fraction(row["beta"]) for row in rows]
    _check(_strictly_increasing(ts[::-1]), "t does not strictly decrease")
    _check(all(0 <= err <= MAX_T_ERROR for err in errors),
           "t_error above {}".format(MAX_T_ERROR))
    _check(all(float(opts["tmin"]) - MAX_T_ERROR <= t <= 1 for t in ts),
           "t outside [tmin, 1]")
    _check(_strictly_increasing(betas), "beta does not strictly increase")
    _check(all(int(row["mult"]) > 0 for row in rows),
           "non-positive multiplicity")
    return "ok"


def check_spectrum(opts, rc, text):
    _check(rc == 0, "exit code {}".format(rc))
    fmt = opts.get("format", "json")
    cutoff = Fraction(opts["cutoff"])
    _, rows = _records(text, fmt, "entries")
    by_origin = {}
    for row in rows:
        by_origin.setdefault(row["origin"], []).append(row)
    _check(set(by_origin) <= {"total", "base"}, "unknown origin")
    for origin, entries in by_origin.items():
        values = [Fraction(row["value"]) for row in entries]
        _check(_strictly_increasing(values),
               "{} values are not sorted".format(origin))
        _check(all(0 < v <= cutoff for v in values),
               "{} value outside (0, cutoff]".format(origin))
    for row in by_origin.get("base", []):
        mult = row["mult"]
        _check(isinstance(mult, int) or (isinstance(mult, str)
                                         and mult.isdigit()),
               "base multiplicity is not an integer")
        _check(int(mult) > 0, "base multiplicity is not positive")
    return "ok"


def check_morse(opts, rc, text):
    _check(rc == 0, "exit code {}".format(rc))
    fmt = opts.get("format", "json")
    _, rows = _records(text, fmt, "grid")
    _check(len(rows) == MORSE_STEPS + 1, "grid size")
    ts = [Fraction(row["t_exact"]) for row in rows]
    t_max = Fraction(opts.get("tmax", "1"))
    _check(ts[0] == Fraction(opts["tmin"]) and ts[-1] == t_max,
           "grid does not span [tmin, tmax]")
    _check(_strictly_increasing(ts), "grid t does not increase")
    indices = [row["index"] for row in rows]
    indices = [int(i) for i in indices if i not in (None, "")]
    _check(all(a >= b >= 0 for a, b in zip(indices, indices[1:])),
           "index increases with t")
    if t_max == 1:
        _check(rows[-1]["index"] in (0, "0"), "index at t = 1 is not 0")
    return "ok"


def check_figure(opts, rc, text):
    _check(rc == 0, "exit code {}".format(rc))
    fmt = opts.get("format", "csv")
    if fmt == "svg":
        root = ET.fromstring(text)
        _check(root.tag.endswith("svg"), "root element is not svg")
        _check(root.findall("{http://www.w3.org/2000/svg}polyline"),
               "no curves drawn")
        return "ok"
    if fmt == "json":
        grid = json.loads(text)["grid"]
        names, rows = grid["columns"], grid["rows"]
    else:
        table = list(csv.reader(io.StringIO(text)))
        names, rows = table[0], [[float(x) for x in row] for row in table[1:]]
    _check(len(names) == FIGURE_COLUMNS and names[:2] ==
           ["t", "scal_over_m_minus_1"], "figure columns")
    _check(len(rows) == FIGURE_STEPS + 1, "figure grid size")
    _check(all(math.isfinite(x) for row in rows for x in row),
           "non-finite figure value")
    _check(_strictly_increasing([row[0] for row in rows]),
           "figure t does not increase")
    # scal(t)/(m-1) strictly decreases on (0, 1].
    _check(_strictly_increasing([row[1] for row in rows][::-1]),
           "scal/(m-1) does not decrease")
    return "ok"


def check_verify(opts, rc, text):
    lines = text.splitlines()
    _check(lines and lines[-1] in ("VERIFY: PASS", "VERIFY: FAIL"),
           "missing VERIFY line")
    failed = []
    checks = 0
    for line in lines[:-1]:
        if " ledger: " in line:
            continue
        match = _VERIFY_LINE.match(line)
        _check(match is not None, "unparsed line {!r}".format(line))
        checks += 1
        if match.group(4) == "FAIL":
            failed.append((match.group(1), int(match.group(2)),
                           match.group(3)))
    _check(checks > 0, "no check lines")
    passed = lines[-1] == "VERIFY: PASS"
    _check(passed == (not failed), "VERIFY line contradicts the checks")
    _check(rc == (0 if passed else 1),
           "exit code {} does not match the checks".format(rc))
    if not failed:
        return "ok"
    _check(all(kind == "so-odd" and n >= 4
               and name == "closed-form-cross-check"
               for kind, n, name in failed),
           "failed checks: {}".format(failed))
    return "known"


CHECKS = {"scal": check_scal, "instants": check_instants,
          "spectrum": check_spectrum, "morse": check_morse,
          "figure": check_figure, "verify": check_verify}


def classify(argv, rc, stdout):
    """(outcome, reason) for one query's exit code and stdout bytes."""
    opts = options(argv)
    try:
        text = stdout.decode("utf-8")
        return CHECKS[opts["sub"]](opts, rc, text), ""
    except (OracleError, ValueError, KeyError, TypeError, IndexError,
            ET.ParseError) as exc:
        return "failed", "{}: {}".format(type(exc).__name__, exc)
