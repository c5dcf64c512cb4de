"""End-to-end tests for the flagvar command line, driven through main()
so exit codes and output land exactly as a shell would see them."""

import ast
import csv
import io
import json
import pathlib
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from flagvar import bifurcation, cli, fibration, spectra, surd
from flagvar.curvature import ScalPoly
from flagvar.rootsys import build_root_system
from test_acceptance import CASES


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
    # A first instant at u >= 1 is an internal fault, not a usage error.
    # A first base eigenvalue valued s(1) plants it at the boundary u = 1.
    real = bifurcation.base_spectrum_first

    def at_one(family, count):
        s_one = fibration.build_fibration(family).scal_over_m_minus_1(1)
        return [entry._replace(value=s_one) for entry in real(family, 1)]

    monkeypatch.setattr(bifurcation, "base_spectrum_first", at_one)
    code, out, err = run(capsys, ["verify", "--family", "su", "--n", "2"])
    assert code == 1 and out == ""
    assert err == "flagvar: certificate failed: no degeneracy inside (0, 1)\n"


def test_repeated_beta_fails_the_decrease_in_one_line(capsys, monkeypatch):
    # Two instants from one base value do not decrease strictly.
    real = bifurcation.instant_base

    def repeated(fib, t_min):
        base = real(fib, t_min)
        return base[:2] + base[1:]

    monkeypatch.setattr(bifurcation, "instant_base", repeated)
    code, out, err = run(capsys, ["instants", "--family", "su", "--n", "2"])
    assert code == 1 and out == ""
    assert err == ("flagvar: certificate failed: instants failed to"
                   " decrease strictly\n")


def test_singular_gram_is_one_line(capsys, monkeypatch):
    # A singular simple-root Gram matrix is an internal fault.
    def singular(family):
        return ((1, 2), (2, 4))

    monkeypatch.setattr(spectra, "_simple_gram", singular)
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
    bifurcation.instant_base.cache_clear()
    code, out, err = run(capsys, ["instants", "--family", "su", "--n", "3"])
    bifurcation.instant_base.cache_clear()
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


def test_grading_fault_exits_1(capsys, monkeypatch):
    # Grading on an odd last coefficient puts two vertical roots in one
    # triple with a horizontal one: a fault of the grading rule, not of
    # the input.
    real = fibration._weyl_rows

    def flipped(family):
        rows, den = real(family)
        step = sum(x * x for x in build_root_system(family).simple_roots[-1])
        return tuple(row[:-1] + (row[-1] + step,) for row in rows), den

    monkeypatch.setattr(fibration, "_weyl_rows", flipped)
    code, out, err = run(capsys, ["scal", "--family", "su", "--n", "3"])
    assert code == 1 and out == ""
    assert err.startswith(
        "flagvar: certificate failed: unexpected vertical pattern")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("sub", ["scal", "instants", "morse", "figure",
                                 "verify"])
def test_scal_shape_fault_exits_1(capsys, monkeypatch, sub):
    # scal(t) with E > 0 breaks the one A > 0 > E check every subcommand
    # past it relies on.  The instant_base cache keys on equal
    # fibrations, so it is emptied around the patched run.
    one = Fraction(1)
    monkeypatch.setattr(fibration, "scal_wz",
                        lambda fib: ScalPoly(one, one, one, one))
    bifurcation.instant_base.cache_clear()
    try:
        code, out, err = run(capsys, [sub, "--family", "su", "--n", "2"])
    finally:
        bifurcation.instant_base.cache_clear()
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
    def refuse(simple_roots, scale, cutoff, origin):
        assert origin != "fiber", "unexpected fiber enumeration"
        return real(simple_roots, scale, cutoff, origin)

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

