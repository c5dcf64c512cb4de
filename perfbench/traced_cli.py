"""Run one flagvar CLI query with every public function traced.

Usage: python3 perfbench/traced_cli.py <flagvar arguments...>

The query's output goes to stdout as usual.  The last line of stderr is
``TRACE_MARKER`` followed by a JSON summary: the import time of
``flagvar.cli``, whether sympy was loaded, per-span-name calls, total and
self times, spectral entry counts, and the ``main`` accounting check.
"""

import json
import sys
import time

TRACE_MARKER = "PERFBENCH-TRACE "


def main_accounting(spans, layers):
    """(main duration, cli self time + library root spans) for one query.

    Every span under ``cli.main`` either belongs to the cli module or is
    a library span; a library span whose parent is a cli span is a root.
    The two figures agree when spans nest properly.
    """
    main_s = layers.get("cli.main", {}).get("total_s", 0.0)
    cli_self = sum(agg["self_s"] for name, agg in layers.items()
                   if name.startswith("cli."))
    roots = sum(end - start for name, start, end, parent in spans
                if parent >= 0 and not name.startswith("cli.")
                and spans[parent][0].startswith("cli."))
    return main_s, cli_self + roots


def run(argv):
    started = time.perf_counter()
    import flagvar.cli
    import_s = time.perf_counter() - started
    sympy_loaded = "sympy" in sys.modules

    import spans as spanlib
    log = spanlib.SpanLog()
    spanlib.install(log)
    try:
        code = flagvar.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    spans = log.spans()
    layers = spanlib.self_times(spans)
    main_s, accounted_s = main_accounting(spans, layers)
    summary = {
        "import_s": import_s,
        "sympy_loaded": sympy_loaded,
        "layers": layers,
        "entries": log.entries,
        "main_s": main_s,
        "accounted_s": accounted_s,
        "spans": len(spans),
    }
    sys.stderr.write("\n" + TRACE_MARKER + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
