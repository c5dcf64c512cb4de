"""Seeded query lists for the three benchmark workloads.

A workload is a deck of cells.  Each cell is one (subcommand, family)
pairing with a few alternative argument lists of about the same cost; a
round draws one alternative per cell and shuffles the deck.  Every round
therefore has the same mix of work and only the parameters and the order
depend on the seed, which keeps runs with different seeds comparable.

A run makes ``round(seconds / round_s)`` rounds, at least one, where
``round_s`` is the nominal length of one round on the reference machine
(2 cores, Python 3.11).  The query count depends only on the arguments,
never on how fast the program runs, so the tail percentile stays the same
percentile when the program gets faster.
"""

import random
from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class Workload:
    name: str
    round_s: float
    cells: tuple  # tuple of tuples of argv tuples

    def rounds(self, seconds):
        return max(1, round(seconds / self.round_s))


def _cell(sub, ranks, **options):
    """Alternatives for one cell: each rank with each combination of options."""
    out = []
    for (family, n), values in product(ranks, product(*options.values())):
        argv = (sub, "--family", family, "--n", str(n))
        for key, value in zip(options, values):
            argv += ("--" + key, value)
        out.append(argv)
    return tuple(out)


# Interactive family groups: the families inside a group cost about the same.
_SMALL = (
    (("su", 2), ("su", 3), ("su", 4)),
    (("so-odd", 2), ("g2", 2)),
    (("sp", 3), ("so-even", 4)),
)
_TMIN_SMALL = ("0.15", "0.25", "0.35", "0.5")
_TEXT = ("json", "csv")


def _interactive_cells():
    cells = []
    for ranks in _SMALL:
        cells += [
            _cell("spectrum", ranks, cutoff=("2", "3", "4"), format=_TEXT),
            _cell("scal", ranks, format=_TEXT),
            _cell("instants", ranks, tmin=_TMIN_SMALL, format=_TEXT),
            _cell("morse", ranks, tmin=_TMIN_SMALL, format=_TEXT),
            _cell("figure", ranks, tmin=_TMIN_SMALL,
                  format=("csv", "json", "svg")),
            _cell("verify", ranks),
        ]
    return tuple(cells)


def _high_rank_cells():
    # so-odd 5 carries the catalogued cross-check finding: verify exits 1.
    cells = [_cell("verify", [rank]) for rank in
             (("sp", 5), ("so-even", 6), ("so-odd", 5))]
    cells += [_cell("spectrum", [rank], cutoff=("3",), format=_TEXT)
              for rank in (("su", 6), ("so-even", 5))]
    cells += [_cell("scal", ranks, format=_TEXT) for ranks in
              ((("su", 8), ("so-even", 8)), (("so-odd", 8), ("sp", 8)))]
    cells.append(_cell("instants", [("sp", 3)],
                       tmin=("0.045", "0.0475", "0.05")))
    return tuple(cells)


def _deep_instants_cells():
    tmin = ("0.007", "0.008", "0.009")
    cells = []
    for rank in (("su", 2), ("su", 3), ("so-odd", 2)):
        cells += [_cell("instants", [rank], tmin=tmin),
                  _cell("morse", [rank], tmin=tmin),
                  _cell("figure", [rank], tmin=tmin, format=("svg",))]
    return tuple(cells)


WORKLOADS = {w.name: w for w in (
    # A person at a terminal: small ranks, so interpreter start, imports
    # and cli formatting dominate; spectra and surd barely work.
    Workload("interactive", 11.0, _interactive_cells()),
    # Rank 5-8: Fraction arithmetic in rootsys, curvature and the flag and
    # base enumerations dominates, import is a small share, surd is idle.
    Workload("high-rank", 12.0, _high_rank_cells()),
    # Small tmin on closed-form bases: hundreds of instants per query, so
    # surd and squarefree_split work while spectra takes its cheap path.
    Workload("deep-instants", 11.0, _deep_instants_cells()),
)}


def queries(workload, seed, rounds):
    """The run's query list: argv tuples, fixed by the arguments."""
    cells = WORKLOADS[workload].cells
    rng = random.Random("{}:{}".format(workload, seed))
    out = []
    for _ in range(rounds):
        deck = [rng.choice(cell) for cell in cells]
        rng.shuffle(deck)
        out += deck
    return out


def all_queries(workload):
    """Every argv tuple the workload can draw, in a fixed order."""
    return [argv for cell in WORKLOADS[workload].cells for argv in cell]
