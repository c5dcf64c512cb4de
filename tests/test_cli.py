"""End-to-end tests for the flagvar command line, driven through main()
so exit codes and output land exactly as a shell would see them."""

import ast
import csv
import io
import json
import pathlib
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from flagvar import bifurcation, catalog, cli, fibration, spectra, surd
from flagvar.curvature import ScalPoly
from test_acceptance import CASES
from test_golden import ARGVS


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- scal ------------------------------------------------------------------

def test_scal_g2_passes(capsys):
    code, out, _ = run(capsys, ["scal", "--family", "g2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    sources = {e["source"] for e in payload["entries"]}
    assert sources == {"wang-ziller", "closed-form"}


def test_scal_sp_reports_failure(capsys):
    code, out, _ = run(capsys, ["scal", "--family", "c"])
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "FAIL"
    assert any("t^2 coefficient" in note for note in payload["ledger"])


def test_scal_so_odd_n2_passes_but_n4_fails(capsys):
    code, _, _ = run(capsys, ["scal", "--family", "so-odd", "--n", "2"])
    assert code == 0
    capsys.readouterr()
    code, _, _ = run(capsys, ["scal", "--family", "so-odd", "--n", "4"])
    assert code == 1


# -- spectrum --------------------------------------------------------------

def test_spectrum_json_schema(capsys):
    code, out, _ = run(capsys, ["spectrum", "--family", "su", "--n", "2",
                                "--cutoff", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "su"
    assert payload["n"] == 2
    assert payload["m"] == 6
    origins = {e["origin"] for e in payload["entries"]}
    assert origins == {"total", "base"}
    for entry in payload["entries"]:
        num, _, den = entry["value"].partition("/")
        assert num.lstrip("-").isdigit() and den.isdigit()
    base = [e for e in payload["entries"] if e["origin"] == "base"]
    assert base[0]["value"] == "1/1"
    assert base[0]["mult"] == 8


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, ["spectrum", "--family", "g2",
                                "--cutoff", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "origin,value,value_float,mult,label"
    assert any(line.startswith("base,7/6,") for line in lines[1:])


# -- instants --------------------------------------------------------------

def test_instants_su3_csv_two_rows(capsys):
    code, out, _ = run(capsys, ["instants", "--family", "su", "--n", "2",
                                "--tmin", "0.2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,u,t,t_error,mult,is_bifurcation"
    assert len(lines) == 3
    assert lines[1].startswith("1/1,(-27+3*sqrt(85))/3,0.46855571418")
    assert lines[2].startswith("8/3,")


def test_instants_json_exact_surd(capsys):
    code, out, _ = run(capsys, ["instants", "--family", "so-odd", "--n", "2",
                                "--tmin", "0.6"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["instants"]) == 1
    inst = payload["instants"][0]
    assert inst["beta"] == "2/3"
    assert inst["mult"] == 5
    assert "sqrt(5)" in inst["u"]
    assert abs(inst["t"] - 0.6871214994450251) < 1e-9


U_NUMERATOR = re.compile(r"(-?\d+)([+-]\d+)\*sqrt\((\d+)\)")


@pytest.mark.parametrize("kind,n", CASES,
                         ids=["{}-{}".format(*case) for case in CASES])
def test_printed_u_has_integer_fields_and_matches_t(capsys, kind, n):
    # (p+q*sqrt(d))/r with integer fields, read as written, gives t.
    code, out, _ = run(capsys, ["instants", "--family", kind, "--n", str(n),
                                "--tmin", "1/20", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    with localcontext() as ctx:
        ctx.prec = 60
        for row in rows:
            text = row["u"]
            num, r = (text[1:].rsplit(")/", 1) if text.startswith("(")
                      else (text, "1"))
            match = U_NUMERATOR.fullmatch(num)
            assert match and r.isdigit(), text
            p, q, d = (int(x) for x in match.groups())
            r = int(r)
            u = (Decimal(p) + Decimal(q) * Decimal(d).sqrt()) / r
            err = abs(float(u.sqrt()) - float(row["t"]))
            assert err <= float(row["t_error"]) + 1e-12, row


# -- morse -----------------------------------------------------------------

def test_morse_csv_grid(capsys):
    code, out, _ = run(capsys, ["morse", "--family", "su", "--tmin", "0.1",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,t_exact,index"
    assert len(lines) == 102
    assert lines[1] == "0.1,1/10,440"
    assert lines[-1] == "1.0,1/1,0"


def test_morse_json_index_nondecreasing(capsys):
    code, out, _ = run(capsys, ["morse", "--family", "g2", "--tmin", "0.11"])
    assert code == 0
    payload = json.loads(out)
    indices = [row["index"] for row in payload["grid"]]
    assert indices == sorted(indices, reverse=True)
    assert indices[-1] == 0


def test_morse_solves_no_instant_and_builds_no_surd(capsys, monkeypatch):
    argv = ["morse", "--family", "sp", "--n", "3", "--tmin", "0.05"]

    def refuse(*args, **kwargs):
        raise AssertionError("morse solved an instant")

    monkeypatch.setattr(bifurcation, "solve_instant", refuse)
    monkeypatch.setattr(surd.QuadraticSurd, "__init__", refuse)
    patched = run(capsys, argv)
    monkeypatch.undo()
    assert patched == run(capsys, argv)
    assert patched[0] == 0 and patched[2] == ""


# -- identities across subcommands -----------------------------------------

SURD = re.compile(r"\(?(-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)?(?:/(\d+))?")


def _compare_surd(text, x):
    """-1, 0 or 1 as the printed u lies below, at or above the rational
    x, decided on the surd's integers: (p + q*sqrt(d))/r - x has the sign
    of q*sqrt(d) - c, c = x*r - p, and a rational u prints as a Fraction."""
    match = SURD.fullmatch(text)
    if match is None:
        diff = Fraction(text) - x
        return (diff > 0) - (diff < 0)
    p, q, d = (int(group) for group in match.groups()[:3])
    c = x * int(match[4] or 1) - p
    sign = 1 if q > 0 else -1
    if (q > 0) != (c > 0):
        return sign
    gap = q * q * d - c * c
    return sign * ((gap > 0) - (gap < 0))


def _morse_breaks(grid, rows):
    """The t_exact of each ``morse`` grid point whose index is not the
    sum of ``mult`` over the ``instants`` rows with u > t**2, or is null
    where no u equals t**2, or not null where one does."""
    broken = []
    for point in grid:
        x = Fraction(point["t_exact"]) ** 2
        signs = [_compare_surd(row["u"], x) for row in rows]
        expected = None if 0 in signs else sum(
            row["mult"] for row, sign in zip(rows, signs) if sign > 0)
        if point["index"] != expected:
            broken.append(point["t_exact"])
    return broken


@pytest.mark.parametrize("family", [
    ["su", "--n", "3"], ["so-odd", "--n", "2"], ["sp", "--n", "3"],
    ["so-even", "--n", "4"], ["g2"]], ids=lambda f: f[0])
def test_morse_index_counts_the_instants_above_t(capsys, family):
    # s(u) falls, so a base value lies below scal(t)/(m-1) exactly when
    # its instant's u exceeds t**2: each grid index is the instants'
    # multiplicity above t**2, at the same t_min.
    argv = ["--family", *family, "--tmin", "1/10"]
    code, out, _ = run(capsys, ["morse"] + argv)
    grid = json.loads(out)["grid"]
    code_instants, out, _ = run(capsys, ["instants"] + argv)
    rows = json.loads(out)["instants"]
    assert code == code_instants == 0 and len(rows) > 1
    assert _morse_breaks(grid, rows) == []
    # Planted control: an instant dropped from the list.
    assert _morse_breaks(grid, rows[1:]) != []


def test_compare_surd_decides_on_integers():
    x = Fraction(1, 4)
    assert _compare_surd("-1+1*sqrt(2)", x) == 1  # 0.414...
    assert _compare_surd("(3-2*sqrt(2))/2", x) == -1  # 0.0857...
    assert _compare_surd("1/4", x) == 0
    assert _compare_surd("1+1*sqrt(2)", x) == 1


# -- figure ----------------------------------------------------------------

def test_figure_csv_columns(capsys):
    code, out, _ = run(capsys, ["figure", "--family", "su", "--n", "2",
                                "--tmin", "0.1", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1] == "scal_over_m_minus_1"
    assert "const_1" in header
    assert "lam_1_1" in header
    assert len(lines) > 100


def test_figure_svg_marks_five_instants(capsys, tmp_path):
    target = tmp_path / "figure.svg"
    code, out, _ = run(capsys, ["figure", "--family", "su", "--n", "2",
                                "--tmin", "0.1", "--format", "svg",
                                "--out", str(target)])
    assert code == 0
    svg = target.read_text()
    assert svg.startswith("<svg")
    assert svg.count("stroke-dasharray") == 5


def test_figure_svg_marks_only_the_instants_up_to_tmax(capsys):
    # su 2 has instants at t = 0.469 and 0.242 and three more down to
    # 0.109; at tmax 0.3 the first lies outside the window.
    code, out, _ = run(capsys, ["figure", "--family", "su", "--n", "2",
                                "--tmin", "0.1", "--tmax", "0.3",
                                "--format", "svg"])
    assert code == 0
    assert out.count("stroke-dasharray") == 4


# -- verify ----------------------------------------------------------------

def test_verify_so_even_exits_zero_with_ledger(capsys):
    code, out, _ = run(capsys, ["verify", "--family", "d", "--n", "4"])
    assert code == 0
    assert "VERIFY: PASS" in out
    assert "prefactor 1/(2n-1) corrected to 1/(2(n-1))" in out
    assert "FAIL" not in out.replace("VERIFY: PASS", "")


def test_verify_all_families_pass(capsys):
    code, out, _ = run(capsys, ["verify", "--family", "so-odd", "--n", "4"])
    assert code == 0
    assert "VERIFY: PASS" in out
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    assert "VERIFY: PASS" in out
    lines = out.splitlines()
    checks = [l for l in lines if " PASS " in l or l.endswith("PASS")]
    assert len(checks) > 40
    # Every catalogued discrepancy family shows up in the ledger lines.
    ledger = "\n".join(l for l in lines if "ledger" in l)
    for needle in ("first eigenvalue", "prefactor", "radicand",
                   "cross coefficient", "bracket table"):
        assert needle in ledger


def test_verify_single_family_mentions_only_it(capsys):
    code, out, _ = run(capsys, ["verify", "--family", "g2"])
    assert code == 0
    assert "[g2" in out
    assert "[su" not in out


def test_every_family_has_one_catalogue_record():
    assert set(catalog.CATALOGUE) == set(fibration.FAMILY_KEYS)
    assert {kind for kind, record in catalog.CATALOGUE.items()
            if record.instant is None} == {"sp", "so-even"}


def _record(kind, change):
    """A plant putting change(record) in place of CATALOGUE[kind]."""
    return lambda monkeypatch: monkeypatch.setitem(
        catalog.CATALOGUE, kind, change(catalog.CATALOGUE[kind]))


def _wrapped(name, wrap):
    """A plant putting wrap(real) in place of ``catalog.<name>``."""
    return lambda monkeypatch: monkeypatch.setattr(
        catalog, name, wrap(getattr(catalog, name)))


def _first_base_at(offset, u=1):
    """A plant moving base[0] of the audit's instant base to s(u) + offset,
    which puts the first instant at t = 1 (u = 1, offset 0) or past it."""
    def wrap(real):
        def planted(fib, t_min):
            base = real(fib, t_min)
            value = fib.scal_over_m_minus_1(u) + offset
            return (base[0]._replace(value=value),) + base[1:]
        return planted
    return _wrapped("instant_base", wrap)


# Per planted input: id, family, rank, further verify options, the plant,
# and the checks it fails, in print order.
PLANTED = [
    ("g2-agrees", "g2", 2, [],
     _record("g2", lambda r: r._replace(agrees=lambda n, label: True)),
     ["closed-form-cross-check"]),
    ("so-odd-scal-agrees", "so-odd", 4, [],
     _record("so-odd", lambda r: r._replace(
         agrees=lambda n, label: label is None or r.agrees(n, label))),
     ["scal-closed-form-pattern"]),
    ("sp-agrees", "sp", 3, [],
     _record("sp", lambda r: r._replace(agrees=lambda n, label: True)),
     ["scal-closed-form-pattern"]),
    ("su-mu1", "su", 2, [],
     _record("su", lambda r: r._replace(mu1=lambda n: Fraction(2))),
     ["flag-minimum"]),
    ("su-census", "su", 3, [],
     _wrapped("su_triple_census",
              lambda real: lambda fib: tuple(c + 1 for c in real(fib))),
     ["triple-census"]),
    ("so-even-beta1", "so-even", 4, [],
     _record("so-even", lambda r: r._replace(beta1=lambda n: Fraction(2))),
     ["base-minimum"]),
    # Every instant bifurcates where the gap certificate holds, so no
    # phi1 fails the flags alone.
    ("su-phi1-gap", "su", 2, ["--phi1", "19/150"], None,
     ["gap-certificate"]),
    ("su-phi1-flag", "su", 2, ["--phi1", "1/10"], None,
     ["gap-certificate", "instants-bifurcate"]),
    ("so-odd-base-at-s1", "so-odd", 2, [], _first_base_at(0),
     ["base-minimum", "threshold-in-unit-interval",
      "morse-rigid-above-threshold", "closed-form-cross-check"]),
    ("g2-base-below-s1", "g2", 2, [], _first_base_at(Fraction(-1, 1000)),
     ["base-minimum", "threshold-in-unit-interval",
      "morse-rigid-above-threshold", "one-solution-at-one",
      "closed-form-cross-check"]),
    # A first instant at t = 2 puts the midpoint of the first two past 1.
    ("su-base-at-s4", "su", 2, [], _first_base_at(0, u=4),
     ["base-minimum", "threshold-in-unit-interval",
      "morse-rigid-above-threshold", "three-solutions-between-instants",
      "one-solution-at-one", "closed-form-cross-check"]),
    ("sp-empty-base", "sp", 3, [],
     _wrapped("instant_base", lambda real: lambda fib, t_min: ()),
     ["base-minimum", "threshold-in-unit-interval", "instants-bifurcate",
      "morse-rigid-above-threshold"]),
    ("su-one-solution-between", "su", 2, [],
     _wrapped("multiplicity_lower_bound",
              lambda real: lambda fib, base, t: 1),
     ["three-solutions-between-instants"]),
    ("sp-stated-attained", "sp", 3, [],
     _wrapped("cn_first_eigenvalue_report",
              lambda real: lambda n: dict(real(n), stated=Fraction(1))),
     ["sp-first-eigenvalue-discrepancy"]),
    ("so-odd-witness-dominant", "so-odd", 2, [],
     _wrapped("is_dominant_class_one", lambda real: lambda family, p: True),
     ["dominance-row-witness"]),
]


@pytest.mark.parametrize("kind,n,options,plant,fails",
                         [case[1:] for case in PLANTED],
                         ids=[case[0] for case in PLANTED])
def test_a_wrong_catalogue_record_fails_its_check(capsys, monkeypatch, kind,
                                                  n, options, plant, fails):
    # Each planted input, a wrong record, a wrong option or a wrong
    # derived value, fails exactly its checks, one line each.
    if plant is not None:
        plant(monkeypatch)
    code, out, err = run(capsys, ["verify", "--family", kind, "--n", str(n)]
                         + options)
    assert code == 1 and err == ""
    assert [l for l in out.splitlines() if l.endswith("FAIL")] == [
        "[{} n={}] {}: FAIL".format(kind, n, check) for check in fails
    ] + ["VERIFY: FAIL"]


def test_every_verify_check_has_a_planted_failure(capsys):
    # morse-nondecreasing is the one exception: it bisects a sorted base
    # against a strictly falling s, so its indices cannot decrease.
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    printed = {m.group(1) for m in re.finditer(
        r"^\[\S+ n=\d+\] (\S+): PASS$", out, re.M)}
    planted = {check for *_, fails in PLANTED for check in fails}
    assert printed == planted | {"morse-nondecreasing"}
    assert "morse-nondecreasing" not in planted


# -- failure and usage paths ----------------------------------------------

@pytest.mark.parametrize("error", [AssertionError, RuntimeError])
def test_certificate_failure_is_one_line(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(bifurcation, "solve_instant", fail)
    code, out, err = run(capsys, ["instants", "--family", "su", "--n", "2"])
    assert code == 1 and out == ""
    assert err == "flagvar: certificate failed: forced\n"


@pytest.mark.parametrize("off", [
    lambda p, q, r, d: (p + 1, q, r, d),
    lambda p, q, r, d: (p, q + 1, r, d),
    lambda p, q, r, d: (p, q, r + 1, d),
    # With the root's (p, q, r, d), (p + 1 + sqrt(q*q*d - 1))/r keeps the
    # rational part of the residual 0, and the sqrt part is -r.
    lambda p, q, r, d: (p + 1, 1, r, q * q * d - 1)],
    ids=["p", "q", "r", "sqrt-part"])
def test_surd_one_unit_off_fails_the_residual_in_one_line(
        capsys, monkeypatch, off):
    # The solved surd one unit off misses the defining quadratic; the
    # integer residual check is a certificate failure.
    monkeypatch.setattr(bifurcation, "QuadraticSurd",
                        lambda *args: surd.QuadraticSurd(*off(*args)))
    code, out, err = run(capsys, ["instants", "--family", "su", "--n", "2"])
    assert code == 1 and out == ""
    assert err == ("flagvar: certificate failed: nonzero residual for a"
                   " solved instant\n")


def test_threshold_outside_the_unit_interval_is_one_line(capsys, monkeypatch):
    # A first base value at s(1) puts the threshold at t = 1, outside
    # (0, 1): verify prints its failing checks and exits 1, no traceback.
    _first_base_at(0)(monkeypatch)
    code, out, err = run(capsys, ["verify", "--family", "su", "--n", "2"])
    assert code == 1 and err == ""
    assert [l for l in out.splitlines() if l.endswith("FAIL")] == [
        "[su n=2] base-minimum: FAIL",
        "[su n=2] threshold-in-unit-interval: FAIL",
        "[su n=2] morse-rigid-above-threshold: FAIL",
        "[su n=2] closed-form-cross-check: FAIL", "VERIFY: FAIL"]


def test_repeated_beta_fails_the_decrease_in_one_line(capsys, monkeypatch):
    # Two instants from one base value do not decrease strictly.
    real = cli.instant_base

    def repeated(fib, t_min):
        base = real(fib, t_min)
        return base[:2] + base[1:]

    monkeypatch.setattr(cli, "instant_base", repeated)
    code, out, err = run(capsys, ["instants", "--family", "su", "--n", "2"])
    assert code == 1 and out == ""
    assert err == ("flagvar: certificate failed: instants failed to"
                   " decrease strictly\n")


def test_singular_gram_is_one_line(capsys, monkeypatch):
    # A singular simple-root Gram matrix is an internal fault, planted
    # where the uncached class-one walk reads it.
    def singular(simple_roots):
        return ((1, 2), (2, 4))

    monkeypatch.setattr(spectra, "gram_matrix", singular)
    monkeypatch.setattr(spectra, "_class_one_spectrum",
                        spectra._class_one_spectrum.__wrapped__)
    code, out, err = run(capsys, ["spectrum", "--family", "su", "--n", "2"])
    assert code == 1 and out == ""
    assert err == "flagvar: certificate failed: singular Gram matrix\n"


def test_internal_exactness_failure_exits_1(capsys, monkeypatch):
    # A wrong Weyl denominator is an internal fault, not a usage error.
    real = spectra._weyl_rows

    def wrong(family):
        rows, den = real(family)
        return rows, den * 10**30

    monkeypatch.setattr(spectra, "_weyl_rows", wrong)
    code, out, err = run(capsys, ["instants", "--family", "su", "--n", "3"])
    assert code == 1 and out == ""
    assert err.startswith("flagvar: certificate failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_weyl_denominator_off_by_one_fails_per_weight(capsys, monkeypatch):
    # Each weight's Weyl product must divide exactly by the denominator,
    # so a denominator off by one fails the base enumeration, and the
    # command line reports it in one line.
    real = spectra._weyl_rows

    def off_by_one(family):
        rows, den = real(family)
        return rows, den + 1

    monkeypatch.setattr(spectra, "_weyl_rows", off_by_one)
    with pytest.raises(AssertionError):
        spectra.base_spectrum(fibration.FibrationFamily("sp", 3), 6)
    code, out, err = run(capsys, ["spectrum", "--family", "sp", "--n", "3"])
    assert code == 1 and out == ""
    assert err == ("flagvar: certificate failed: Weyl dimension did not "
                   "come out a positive integer\n")


def test_a_non_dominant_generator_row_fails_in_one_line(capsys, monkeypatch):
    # A spherical generator off the dominant chamber has a negative
    # fundamental-weight coefficient, so the base enumeration refuses it
    # and the command line reports it in one line.
    root, low, names, _ = fibration._KINDS["sp"]
    monkeypatch.setitem(fibration._KINDS, "sp", (
        root, low, names, lambda n: [(0,) * (n - 1) + (2,)]))
    with pytest.raises(AssertionError):
        spectra.kramer_basis(fibration.FibrationFamily("sp", 3))
    code, out, err = run(capsys, ["spectrum", "--family", "sp", "--n", "3"])
    assert code == 1 and out == ""
    assert err == ("flagvar: certificate failed: spherical generator "
                   "(0, 0, 2) is not dominant\n")


@pytest.mark.parametrize("sub", ["scal", "instants", "morse", "figure",
                                 "verify"])
def test_scal_shape_fault_exits_1(capsys, monkeypatch, sub):
    # scal(t) with E > 0 breaks the one A > 0 > E check every subcommand
    # past it relies on.
    one = Fraction(1)
    monkeypatch.setattr(fibration, "scal_wz",
                        lambda fib: ScalPoly(one, one, one, one))
    code, out, err = run(capsys, [sub, "--family", "su", "--n", "2"])
    assert code == 1 and out == ""
    assert err == "flagvar: certificate failed: scal(t) breaks A > 0 > E\n"


def test_verify_derives_scal_once(capsys, monkeypatch):
    families = []
    real = fibration.scal_wz

    def counted(fib):
        families.append(fib.family)
        return real(fib)

    monkeypatch.setattr(fibration, "scal_wz", counted)
    code, _, _ = run(capsys, ["verify", "--family", "sp", "--n", "3"])
    assert code == 0
    assert families == [("sp", 3)]


def _count_walks_and_solves(monkeypatch):
    """(cutoffs, betas): the cutoff of every base walk and the beta of
    every solved instant from now on."""
    cutoffs, betas = [], []
    real_walk, real_solve = spectra._lattice_points, bifurcation.solve_instant

    def walk(*args):
        if sys._getframe(1).f_code is spectra.base_spectrum.__code__:
            cutoffs.append(args[-2])
        return real_walk(*args)

    def solve(fib, beta, mult=1):
        betas.append(beta)
        return real_solve(fib, beta, mult)

    monkeypatch.setattr(spectra, "_lattice_points", walk)
    monkeypatch.setattr(bifurcation, "solve_instant", solve)
    return cutoffs, betas


@pytest.mark.parametrize("sub,n,t_min,solves", [
    ("verify", 3, Fraction(11, 100), True),
    ("instants", 2, Fraction(1, 10), True),
    ("morse", 2, Fraction(1, 10), False)])
def test_each_query_walks_the_base_once_per_cutoff(capsys, monkeypatch, sub,
                                                   n, t_min, solves):
    # Each query walks the base once, up to s(t_min**2): verify reads
    # the threshold off the instants, the Morse checks and the
    # cross-check from that one walk.  verify and instants solve one
    # instant per base entry; morse solves none.
    cutoffs, betas = _count_walks_and_solves(monkeypatch)
    code, _, _ = run(capsys, [sub, "--family", "su", "--n", str(n)])
    assert code == 0
    fib = fibration.build_fibration(fibration.FibrationFamily("su", n))
    assert cutoffs == [fib.scal_over_m_minus_1(t_min * t_min)]
    base = bifurcation.instant_base(fib, t_min)
    assert betas == [entry.value for entry in base] * solves


def test_verify_walks_the_g2_base_once(capsys, monkeypatch):
    # g2's first base value 7/6 exceeds 1, and verify still walks once.
    cutoffs, betas = _count_walks_and_solves(monkeypatch)
    code, _, _ = run(capsys, ["verify", "--family", "g2"])
    assert code == 0
    fib = fibration.build_fibration(fibration.FibrationFamily("g2"))
    t_min = Fraction(11, 100)
    assert cutoffs == [fib.scal_over_m_minus_1(t_min * t_min)]
    base = bifurcation.instant_base(fib, t_min)
    assert betas == [entry.value for entry in base]


def test_usage_error_bad_tmin(capsys):
    code, _, err = run(capsys, ["instants", "--family", "su", "--tmin", "2"])
    assert code == 2
    assert "t_min" in err


def test_usage_error_bad_cutoff(capsys):
    code, _, err = run(capsys, ["spectrum", "--family", "su",
                                "--cutoff", "0"])
    assert code == 2
    assert "cutoff" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "su", "--cutoff", "1/0"],
    ["instants", "--family", "su", "--tmin", "1/0"],
    ["instants", "--family", "su", "--phi1", "1/0"]], ids=lambda a: a[3])
def test_zero_denominator_names_the_option(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "flagvar: {} 1/0: zero denominator\n".format(argv[3])


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "su", "--cutoff", "abc"],
    ["instants", "--family", "su", "--tmin", "nan"],
    ["instants", "--family", "su", "--phi1", "x"]], ids=lambda a: a[3])
def test_malformed_rational_names_the_option(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "flagvar: {} {}: not a rational number\n".format(*argv[3:])


def test_verify_rank_without_family_is_rejected_first(capsys, monkeypatch):
    monkeypatch.setattr(cli, "audit", None)  # no family is audited
    code, out, err = run(capsys, ["verify", "--n", "5"])
    assert code == 2
    assert out == ""
    assert err == "flagvar: verify --n needs --family\n"


def test_usage_error_bad_phi1(capsys):
    code, _, err = run(capsys, ["instants", "--family", "su", "--phi1", "0"])
    assert code == 2


def test_phi1_only_where_it_is_read(capsys):
    # Only instants and verify read phi1; argparse rejects it elsewhere.
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure", "--family", "su", "--phi1", "1"])
    assert exc.value.code == 2
    assert "--phi1" in capsys.readouterr().err


def test_unknown_family_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scal", "--family", "e8"])
    assert exc.value.code == 2


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# -- file output -----------------------------------------------------------

def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "instants.json"
    code, out, _ = run(capsys, ["instants", "--family", "su", "--n", "2",
                                "--tmin", "0.2", "--out", str(target)])
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert len(payload["instants"]) == 2


def test_out_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["spectrum", "--family", "su",
                                  "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("flagvar: cannot write ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["scal", "--family", "so-odd", "--n", "4"],
    ["spectrum", "--family", "sp", "--n", "3", "--cutoff", "3"]])
def test_scal_and_spectrum_enumerate_no_fiber(capsys, monkeypatch, argv):
    # phi1 is derived only when read, and these two never read it.
    fiber = fibration.build_fibration(fibration.FibrationFamily(
        argv[2], int(argv[4]))).fiber_simple_roots

    def refuse(simple_roots, scale, cutoff):
        assert simple_roots != fiber, "unexpected fiber enumeration"
        return real(simple_roots, scale, cutoff)

    real = spectra._class_one_spectrum
    monkeypatch.setattr(spectra, "_class_one_spectrum", refuse)
    code, out, _ = run(capsys, argv)
    assert code in (0, 1)
    assert json.loads(out)["family"] == argv[2]


# The command-line examples of the README, one per subcommand.
README_LINES = [
    line.split("#")[0].split()
    for line in (pathlib.Path(__file__).resolve().parents[1] / "README.md")
    .read_text().splitlines() if line.startswith("flagvar ")]


def test_readme_examples_found():
    assert sorted(argv[1] for argv in README_LINES) == sorted(
        ["spectrum", "scal", "instants", "morse", "figure", "verify"])


@pytest.mark.parametrize("argv", README_LINES, ids=" ".join)
def test_readme_example_runs(capsys, argv):
    code, out, err = run(capsys, argv[1:])
    assert code == 0 and out and err == ""


def test_alias_families_match_canonical(capsys):
    code_alias, out_alias, _ = run(capsys, ["scal", "--family", "a",
                                            "--n", "3"])
    code_full, out_full, _ = run(capsys, ["scal", "--family", "su",
                                          "--n", "3"])
    assert code_alias == code_full == 0
    assert out_alias == out_full


# -- one walk per spectrum and cutoff ---------------------------------------

def walk_keys(capsys, monkeypatch, argv):
    """(W, w, factor, cutoff) of every lattice walk that one in-process
    run of ``argv`` makes, every flagvar cache emptied first."""
    for module in list(sys.modules.values()):
        if module.__name__.startswith("flagvar"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    keys = []
    real = spectra._lattice_points

    def spy(form, cutoff, carried):
        quad, linear, factor = form
        keys.append((tuple(map(tuple, quad)), tuple(linear), factor,
                     Fraction(cutoff)))
        return real(form, cutoff, carried)

    monkeypatch.setattr(spectra, "_lattice_points", spy)
    run(capsys, argv)
    return keys


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_no_query_walks_one_spectrum_twice_at_one_cutoff(capsys, monkeypatch,
                                                         argv):
    # The class-one walk is cached, so the flag minimum, phi1, the sp
    # catalogued minimum and the figure's first entries share theirs.
    keys = walk_keys(capsys, monkeypatch, argv)
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "sp", "--n", "3"],
    ["figure", "--tmin", "0.3", "--format", "svg", "--family", "su", "--n",
     "2"]], ids=" ".join)
def test_an_uncached_class_one_walk_repeats(capsys, monkeypatch, argv):
    # Planted control: without the walk's cache, these queries walk the
    # same class-one points up to 1 twice.
    monkeypatch.setattr(spectra, "_class_one_spectrum",
                        spectra._class_one_spectrum.__wrapped__)
    keys = walk_keys(capsys, monkeypatch, argv)
    assert len(keys) > len(set(keys))


# -- module boundaries -----------------------------------------------------

def test_catalogue_stays_apart_from_the_derived_modules():
    # cli imports no private name, and only cli and the package root
    # import the catalogue: the derived modules never see it.
    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if path.name == "cli.py":
                assert not [a.name for a in node.names
                            if a.name.startswith("_")]
            if path.name not in ("__init__.py", "cli.py"):
                assert node.module != "catalog", path.name

