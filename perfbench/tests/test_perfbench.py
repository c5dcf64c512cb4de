"""Self-tests of the benchmark harness: generator, oracle, spans, tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import importlib
import inspect
import json
import subprocess
import sys

import pytest

import oracle
import run
import spans
import workloads
from traced_cli import TRACE_MARKER, main_accounting


def cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "flagvar.cli"] + list(argv),
                          capture_output=True, env=run.child_env(),
                          cwd=run.ROOT, check=False)
    return proc.returncode, proc.stdout


# -- query generator ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_list_and_seeds_differ(name):
    first = workloads.queries(name, 7, 2)
    assert first == workloads.queries(name, 7, 2)
    assert first != workloads.queries(name, 8, 2)
    assert set(first) <= set(workloads.all_queries(name))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_draws_each_cell_once(name):
    spec = workloads.WORKLOADS[name]
    drawn = workloads.queries(name, 3, 2)
    per_round = len(spec.cells)
    assert len(drawn) == 2 * per_round
    for start in range(0, len(drawn), per_round):
        deck = drawn[start:start + per_round]
        assert all(sum(argv in cell for argv in deck) == 1
                   for cell in spec.cells)


def test_every_drawable_query_has_a_digest():
    table = run.load_digests()
    for name in workloads.WORKLOADS:
        assert all(" ".join(a) in table for a in workloads.all_queries(name))


# -- oracle ------------------------------------------------------------------

def test_oracle_accepts_and_rejects_perturbed_scal():
    argv = ("scal", "--family", "su", "--n", "2")
    rc, out = cli(*argv)
    assert oracle.classify(argv, rc, out) == ("ok", "")
    payload = json.loads(out)
    row = payload["entries"][0]
    assert row["source"] == "wang-ziller"
    row["a"] = "{}/{}".format(int(row["a"].split("/")[0]) + 1,
                              row["a"].split("/")[1])
    bad = json.dumps(payload).encode()
    outcome, reason = oracle.classify(argv, rc, bad)
    assert outcome == "failed" and "t=1 identity" in reason


def test_oracle_scal_fail_verdict_is_a_known_finding():
    argv = ("scal", "--family", "sp", "--n", "3", "--format", "csv")
    rc, out = cli(*argv)
    assert rc == 1
    assert oracle.classify(argv, rc, out) == ("known", "")
    assert oracle.classify(argv, 0, out)[0] == "failed"


def test_oracle_rejects_out_of_order_instants():
    argv = ("instants", "--family", "su", "--n", "2", "--tmin", "0.2")
    rc, out = cli(*argv)
    assert oracle.classify(argv, rc, out) == ("ok", "")
    payload = json.loads(out)
    assert len(payload["instants"]) >= 2
    payload["instants"][:2] = payload["instants"][1::-1]
    outcome, reason = oracle.classify(argv, rc, json.dumps(payload).encode())
    assert outcome == "failed" and "decrease" in reason


def test_oracle_verify_so_odd_cross_check_is_a_known_finding():
    argv = ("verify", "--family", "so-odd", "--n", "4")
    rc, out = cli(*argv)
    assert rc == 1
    assert oracle.classify(argv, rc, out) == ("known", "")
    other = out.replace(b"morse-nondecreasing: PASS",
                        b"morse-nondecreasing: FAIL")
    assert oracle.classify(argv, rc, other)[0] == "failed"


# -- spans and self times ----------------------------------------------------

def test_self_times_on_a_synthetic_tree():
    tree = [
        ("cli.main", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 6.5, 3),
        ("c", 7.0, 8.0, 3),
    ]
    got = spans.self_times(tree)
    assert got["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert got["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert got["b"] == {"calls": 2, "total_s": 5.0, "self_s": 3.5}
    assert got["c"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    assert main_accounting(tree, got) == (10.0, 3.0 + 3.0 + 4.0)


@pytest.fixture
def installed():
    """Install the tracer in this process and undo it afterwards."""
    modules = spans.flagvar_modules()
    saved = {m: dict(vars(m)) for m in modules}
    surd = importlib.import_module("flagvar.surd").QuadraticSurd
    saved_surd = {a: vars(surd)[a] for a in spans.SURD_METHODS}
    originals = spans.public_functions(modules)
    log = spans.SpanLog()
    try:
        yield log, spans.install(log), modules, originals
    finally:
        for module, namespace in saved.items():
            vars(module).update(namespace)
        for attr, fn in saved_surd.items():
            setattr(surd, attr, fn)


def test_wrapper_covers_every_public_function(installed):
    log, wrappers, modules, originals = installed
    unwrapped = {id(fn) for fn in originals}
    for module in modules:
        for name, obj in vars(module).items():
            assert id(obj) not in unwrapped, "{}.{} left unwrapped".format(
                module.__name__, name)
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                pytest.fail("{}.{} not wrapped".format(module.__name__, name))
    import flagvar
    from flagvar import bifurcation, cli, spectra, variation
    for namespace in (flagvar, spectra, bifurcation, variation, cli):
        assert namespace.flag_minimum.perfbench_span == "spectra.flag_minimum"
    assert bifurcation.weyl_dim.perfbench_span == "spectra.weyl_dim"
    assert spectra.ck_inner.perfbench_span == "rootsys.ck_inner"
    assert "cli.main" in wrappers and "surd.cmp" in wrappers


def test_wrapped_calls_record_nested_spans(installed):
    log, _, _, _ = installed
    from flagvar import spectra
    from flagvar.rootsys import FamilyTag
    from flagvar.surd import QuadraticSurd
    spectra.flag_minimum(FamilyTag("A", 2))
    assert QuadraticSurd(1, 1, 1, 2) > QuadraticSurd(2, 0, 1, 0)
    got = spans.self_times(log.spans())
    assert got["spectra.flag_minimum"]["calls"] == 1
    assert got["spectra.flag_spectrum"]["calls"] >= 1
    assert got["surd.cmp"]["calls"] == 1
    assert got["surd.init"]["calls"] >= 2
    assert log.entries["spectra.flag_spectrum"] >= 1
    assert not log.stack


# -- traced child --------------------------------------------------------------

def traced(*argv):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "traced_cli.py")] + list(argv),
        capture_output=True, env=run.child_env(), cwd=run.ROOT, check=False)
    text = proc.stderr.decode()
    summary = json.loads(text[text.rindex(TRACE_MARKER) + len(TRACE_MARKER):])
    return proc.returncode, proc.stdout, summary


def test_traced_counts_repeat_and_account_for_main():
    argv = ("instants", "--family", "su", "--n", "2", "--tmin", "0.1")
    rc, out, first = traced(*argv)
    assert (rc, out) == cli(*argv)
    _, _, second = traced(*argv)
    calls = {name: agg["calls"] for name, agg in first["layers"].items()}
    assert calls == {name: agg["calls"]
                     for name, agg in second["layers"].items()}
    assert first["entries"] == second["entries"]
    assert calls["cli.main"] == 1 and calls["bifurcation.solve_instant"] > 1
    assert abs(first["main_s"] - first["accounted_s"]) < 1e-6


# -- run-level helpers -----------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(30)]) == (19.0, 100.0 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_missing_program_exits_2_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", run.HERE / "no-such-checkout")
    code = run.main(["--workload", "interactive", "--seed", "1",
                     "--seconds", "1"])
    assert code == 2
    assert "correct" not in capsys.readouterr().out
