"""Record the stdout digest of every query any workload can draw.

Usage, from the repository root:

    python3 perfbench/make_digests.py

Writes perfbench/digests.json.  The file in the repository was made at
the commit that introduced the benchmark; ``cli.outputs_changed`` counts
the queries whose output differs from it.  Regenerating it moves that
reference to the current commit, so do it only on purpose.
"""

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import oracle
import run
import workloads

WORKERS = 2
QUERY_BUDGET_S = 120.0


def main():
    env = run.child_env()
    argvs = [argv for name in workloads.WORKLOADS
             for argv in workloads.all_queries(name)]
    base = [sys.executable, "-m", "flagvar.cli"]

    def one(argv):
        child = run.run_child(base + list(argv), env,
                              time.perf_counter() + QUERY_BUDGET_S)
        if child is None:
            raise RuntimeError("timed out: {}".format(" ".join(argv)))
        outcome, reason = oracle.classify(argv, child.rc, child.stdout)
        if outcome == "failed":
            raise RuntimeError("{}: {}".format(" ".join(argv), reason))
        return " ".join(argv), run.digest(child.stdout)

    with ThreadPoolExecutor(WORKERS) as pool:
        table = dict(pool.map(one, argvs))
    with open(run.HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("{} digests".format(len(table)))


if __name__ == "__main__":
    main()
