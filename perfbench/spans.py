"""Outside-in tracing of flagvar: wrap public functions, keep spans, derive self times.

The program itself carries no instrumentation.  ``install`` replaces every
public function of every ``flagvar`` module, in every module namespace that
binds it (re-imports and the ``flagvar`` package itself included), with a
wrapper that records one span per call.  ``QuadraticSurd.__init__``,
``_cmp`` and ``bounds`` are wrapped on the class.  Spans stay in memory as
four flat arrays (name, start, end, parent); ``self_times`` turns them into
per-name call counts, total and self times once the traced call returns.
"""

import importlib
import pkgutil
import time
from array import array

SURD_METHODS = {"__init__": "surd.init", "_cmp": "surd.cmp",
                "bounds": "surd.bounds"}

# Functions whose return value is a list of spectral entries; the wrapper
# also counts the entries so kept ratios can be formed.
COUNT_ENTRIES = ("spectra.flag_spectrum", "spectra.base_spectrum")


class SpanLog:
    """Spans of one process: parallel arrays indexed by span number."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.entries = {}
        self.stack = []

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn):
        """A callable that records a span named ``name`` around ``fn``."""
        nid = self.name_id(name)
        count_entries = name in COUNT_ENTRIES
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_entries:
                self.entries[name] = self.entries.get(name, 0) + len(result)
            return result

        traced.perfbench_span = name
        return traced

    def spans(self):
        """Spans as (name, start, end, parent index) tuples."""
        return [(self.names[n], s, e, p) for n, s, e, p
                in zip(self.name, self.start, self.end, self.parent)]


def self_times(spans):
    """Per-name {"calls", "total_s", "self_s"} from (name, start, end, parent).

    A span's self time is its duration minus the part its child spans
    cover.  One thread runs the program, so children never overlap and
    the covered part is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, parent), cover in zip(spans, covered):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - cover
    return out


def flagvar_modules():
    """The ``flagvar`` package and every module in it, imported."""
    package = importlib.import_module("flagvar")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module("flagvar." + info.name))
    return modules


def public_functions(modules):
    """{original function: span name} for every public flagvar function.

    A function is public when its defining module binds it under a name
    without a leading underscore.  The ``lru_cache`` wrapper around
    ``flag_minimum`` counts as the function, so cache hits are spans too.
    """
    found = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if (name.startswith("_") or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            found[obj] = "{}.{}".format(short, name)
    return found


def install(log):
    """Wrap every public function and the traced surd methods.

    Returns {span name: wrapper}.  Each module namespace that binds an
    original function gets the same wrapper, so calls through re-imported
    names are recorded under the defining module's name.
    """
    modules = flagvar_modules()
    originals = public_functions(modules)
    wrappers = {fn: log.wrap(name, fn) for fn, name in originals.items()}
    for module in modules:
        namespace = vars(module)
        for key, obj in list(namespace.items()):
            try:
                wrapper = wrappers.get(obj)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                namespace[key] = wrapper
    installed = {originals[fn]: w for fn, w in wrappers.items()}
    surd = importlib.import_module("flagvar.surd").QuadraticSurd
    for attr, name in SURD_METHODS.items():
        wrapper = log.wrap(name, vars(surd)[attr])
        setattr(surd, attr, wrapper)
        installed[name] = wrapper
    return installed
