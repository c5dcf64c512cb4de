"""Cold-CLI benchmark for flagvar.

Usage, from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 25 --trace 0

One client runs cold ``python3 -m flagvar.cli ...`` processes in a closed
loop, one at a time, on a seeded query list (see workloads.py).  Every
output is checked by the oracle (oracle.py).  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` each query runs once
plain and once under the outside-in tracer (traced_cli.py) and the run
reports per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0 on a finished run, 2 when the program
or the arguments are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from traced_cli import TRACE_MARKER  # noqa: E402

ROOT = HERE.parent
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0
TAIL_BEYOND = 10


@dataclass
class Child:
    """Outcome of one child process: wall time, exit code, output, peak RSS."""

    wall_s: float
    rc: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float


def run_child(cmd, env, deadline):
    """Run ``cmd`` to completion (killed at ``deadline``); None if killed."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
        killed = False
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    killed = True
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if killed:
        return None
    out, err = (b"".join(c) for c in chunks.values())
    return Child(time.perf_counter() - start, proc.returncode, out, err,
                 usage.ru_maxrss / 1024.0)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def probe_s():
    """Time of a fixed pure-Fraction loop: the machine-speed probe."""
    start = time.perf_counter()
    acc = 0
    for k in range(1, 40001):
        x = Fraction(k % 97 + 1, k % 89 + 2) * Fraction(k % 7 + 3, k % 5 + 1)
        acc += x < 1
    return time.perf_counter() - start


def setup_s(env, deadline):
    """Median time from a fresh interpreter until flagvar.cli is imported."""
    cmd = [sys.executable, "-c", "import flagvar.cli"]
    run_child(cmd, env, deadline)  # warm-up: writes bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        child = run_child(cmd, env, deadline)
        if child is None or child.rc != 0:
            return None
        times.append(child.wall_s)
    return statistics.median(times)


def tail(latencies):
    """(value, percentile) of the latency tail.

    The highest percentile with at least TAIL_BEYOND samples beyond it;
    when that percentile would not lie above the median (20 samples or
    fewer) the maximum is reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def load_digests():
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none (not a git checkout)"


def run_queries(queries, env, deadline, traced):
    """Run every query in order; one record per query."""
    base = [sys.executable, "-m", "flagvar.cli"]
    traced_cmd = [sys.executable, str(HERE / "traced_cli.py")]
    digests = load_digests()
    records = []
    for i, argv in enumerate(queries):
        rec = {"argv": argv}
        plain_first = i % 2 == 0
        order = ("plain", "traced") if plain_first else ("traced", "plain")
        for kind in order if traced else ("plain",):
            cmd = (base if kind == "plain" else traced_cmd) + list(argv)
            child = run_child(cmd, env, deadline)
            rec[kind] = child
        plain = rec["plain"]
        if plain is None or (traced and rec["traced"] is None):
            rec["outcome"], rec["reason"] = "failed", "killed at the run deadline"
            records.append(rec)
            continue
        rec["outcome"], rec["reason"] = oracle.classify(argv, plain.rc,
                                                        plain.stdout)
        rec["changed"] = digests.get(" ".join(argv)) != digest(plain.stdout)
        if traced:
            check_traced(rec)
        records.append(rec)
    return records


def check_traced(rec):
    """Tracing must not change the output, and spans must account for main."""
    plain, traced = rec["plain"], rec["traced"]
    text = traced.stderr.decode("utf-8", "replace")
    marker = text.rfind(TRACE_MARKER)
    if marker < 0:
        rec["outcome"], rec["reason"] = "failed", "traced run left no summary"
        return
    summary = json.loads(text[marker + len(TRACE_MARKER):])
    rec["summary"] = summary
    if traced.stdout != plain.stdout or traced.rc != plain.rc:
        rec["outcome"], rec["reason"] = "failed", "tracing changed the output"
    elif abs(summary["main_s"] - summary["accounted_s"]) > \
            1e-6 + 1e-9 * summary["main_s"]:
        rec["outcome"], rec["reason"] = "failed", \
            "cli self time and root spans do not account for main"


END_TO_END_UNITS = {"setup_s": "s", "queries_per_s": "1/s",
                    "latency_p50_s": "s", "latency_tail_s": "s",
                    "peak_rss_mb": "MB"}


def end_to_end(records, loop_s, setup):
    walls = [r["plain"].wall_s for r in records]
    value, pct = tail(walls)
    metrics = {
        "setup_s": setup,
        "queries_per_s": len(records) / loop_s,
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": value,
        "peak_rss_mb": max(r["plain"].maxrss_mb for r in records),
    }
    notes = {"latency_tail_s": "p{:.1f} of {} samples".format(pct, len(walls))}
    return metrics, notes


# Per-layer metrics read off one span name: "<span name>.<calls|self_s>".
SPAN_METRICS = [
    "rootsys.ck_inner.calls", "rootsys.ck_inner.self_s",
    "rootsys.structure_constant_sq.calls",
    "rootsys.structure_constant_sq.self_s",
    "rootsys.build_root_system.calls",
    "curvature.scal_wz.self_s", "curvature.triples.calls",
    "spectra.flag_spectrum.calls", "spectra.flag_spectrum.self_s",
    "spectra.flag_mu.calls", "spectra.flag_minimum.self_s",
    "spectra.base_spectrum.calls", "spectra.base_spectrum.self_s",
    "spectra.casimir_of_weight.calls", "spectra.ambient_weight.self_s",
    "spectra.weyl_dim.calls", "spectra.weyl_dim.self_s",
    "variation.gap_certificate.self_s",
    "bifurcation.solve_instant.calls", "bifurcation.solve_instant.self_s",
    "bifurcation.morse_index.calls", "bifurcation.morse_index.self_s",
    "bifurcation.degeneracy_instants.self_s",
    "surd.init.calls", "surd.init.self_s", "surd.cmp.calls",
    "surd.bounds.calls",
    "exact.squarefree_split.calls", "exact.squarefree_split.self_s",
    "exact.solve_linear.calls", "exact.min_eigenvalue_lower_bound.self_s",
]

PER_LAYER_UNITS = dict(
    [("import.flagvar_s", "s"), ("import.sympy_loaded", "bool"),
     ("cli.self_s", "s"), ("cli.outputs_changed", "count")]
    + [(name, "count" if name.endswith(".calls") else "s")
       for name in SPAN_METRICS]
    + [("spectra.flag.kept_ratio", "ratio"),
       ("spectra.base.kept_ratio", "ratio"),
       ("trace.overhead_frac", "ratio")])


def per_layer(records):
    summaries = [r["summary"] for r in records]
    layers = {}
    for summary in summaries:
        for name, agg in summary["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            total["calls"] += agg["calls"]
            total["self_s"] += agg["self_s"]

    def field(span, key):
        return layers.get(span, {}).get(key, 0)

    def entries(span):
        return sum(s["entries"].get(span, 0) for s in summaries)

    def ratio(num, den):
        return num / den if den else 0.0

    plain_s = sum(r["plain"].wall_s for r in records)
    traced_s = sum(r["traced"].wall_s for r in records)
    metrics = {
        "import.flagvar_s": statistics.median(s["import_s"] for s in summaries),
        "import.sympy_loaded": int(any(s["sympy_loaded"] for s in summaries)),
        "cli.self_s": sum(agg["self_s"] for name, agg in layers.items()
                          if name.startswith("cli.")),
        "cli.outputs_changed": sum(r["changed"] for r in records),
    }
    for name in SPAN_METRICS:
        span, _, key = name.rpartition(".")
        metrics[name] = field(span, key)
    metrics["spectra.flag.kept_ratio"] = ratio(
        entries("spectra.flag_spectrum"), field("spectra.flag_mu", "calls"))
    metrics["spectra.base.kept_ratio"] = ratio(
        entries("spectra.base_spectrum"),
        field("spectra.casimir_of_weight", "calls"))
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "flagvar" / "cli.py").is_file():
        print("perfbench: no flagvar sources under {}".format(ROOT / "src"),
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    env = child_env()
    rounds = 1 if args.trace else \
        workloads.WORKLOADS[args.workload].rounds(args.seconds)
    queries = workloads.queries(args.workload, args.seed, rounds)
    probe_before = probe_s()
    setup = setup_s(env, deadline)
    if setup is None:
        print("perfbench: importing flagvar.cli failed", file=sys.stderr)
        return 2
    loop_start = time.perf_counter()
    records = run_queries(queries, env, deadline, traced=bool(args.trace))
    loop_s = time.perf_counter() - loop_start
    probe_after = probe_s()

    failed = [r for r in records if r["outcome"] == "failed"]
    known = sum(r["outcome"] == "known" for r in records)
    changed = sum(r.get("changed", False) for r in records)
    print("workload {}  seed {}  seconds {}  trace {}".format(
        args.workload, args.seed, args.seconds, args.trace))
    print("python {}  nproc {}  git {}".format(
        platform.python_version(), os.cpu_count(), git_sha()))
    print("probe_s before {:.4f}  after {:.4f}".format(probe_before, probe_after))
    print("queries {}  known findings {}  outputs changed {}  failed {}".format(
        len(records), known, changed, len(failed)))
    for rec in failed:
        print("FAILED {}: {}".format(" ".join(rec["argv"]), rec["reason"]))

    done = [r for r in records if "summary" in r or
            (not args.trace and r["plain"] is not None)]
    if not done:
        metrics, units, notes = {}, {}, {}
    elif args.trace:
        metrics, units, notes = per_layer(done), PER_LAYER_UNITS, {}
    else:
        metrics, notes = end_to_end(done, loop_s, setup)
        units = END_TO_END_UNITS
    # failed_frac is printed but kept out of the JSON metrics: a correct
    # run reads 0, and metrics are judged relative to their median.
    shown = dict(metrics, failed_frac=len(failed) / len(records))
    for name, value in shown.items():
        print("{:42s} {:>14.6g} {:6s} {}".format(
            name, value, units.get(name, "ratio"), notes.get(name, "")))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
