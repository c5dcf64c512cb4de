"""The five homogeneous fibrations over symmetric bases.

Each flag manifold G/T fibers over a compact symmetric space G/H with
fiber a smaller flag manifold H/K.  At the root level this is just a
partition of the positive roots into a vertical set (the roots of H) and
its horizontal complement; all dimension bookkeeping follows because
every root contributes a 2-dimensional isotropy summand.  One grading
rule gives the partition for every family: H is the fixed group of the
inner involution Ad(exp(pi*i*omega_n)), omega_n the fundamental
coweight of the last simple root (Borel and de Siebenthal, 1949), so a
positive root is vertical exactly when its coefficient on that simple
root is even.  The fiber's simple roots, and through them its spectrum,
are read off the vertical set.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .curvature import scal_wz
from .rootsys import FamilyTag, build_root_system
from .spectra import _first_entries, _weyl_rows, fiber_spectrum

FAMILY_KEYS = ("su", "so-odd", "sp", "so-even", "g2")

_ROOT_KIND = {"su": "A", "so-odd": "B", "sp": "C", "so-even": "D", "g2": "G2"}
FAMILY_ALIASES = {_ROOT_KIND[kind][0].lower(): kind for kind in FAMILY_KEYS}


# Smallest valid rank of each kind, also its default.
_MIN_RANK = {"su": 2, "so-odd": 2, "sp": 3, "so-even": 4, "g2": 2}


class FibrationFamily(namedtuple("FibrationFamily", "kind n")):
    """Total space selector: kind key plus the rank parameter n.

    Validity: su needs n >= 2, so-odd n >= 2 with n = 3 excluded, sp
    n >= 3, so-even n >= 4; g2 takes no parameter (n is pinned to 2).
    n defaults to the kind's smallest valid rank.
    """

    __slots__ = ()

    def __new__(cls, kind, n=None):
        if kind not in FAMILY_KEYS:
            raise ValueError("unknown fibration family {!r}".format(kind))
        low = _MIN_RANK[kind]
        if n is None:
            n = low
        if kind == "g2":
            if n != low:
                raise ValueError("g2 takes no rank parameter")
        elif n < low or (kind == "so-odd" and n == 3):
            raise ValueError("{} requires n >= {}{}".format(
                kind, low, " with n = 3 excluded" if kind == "so-odd" else ""))
        return super().__new__(cls, kind, n)

    @property
    def root_family(self):
        return FamilyTag(_ROOT_KIND[self.kind], self.n)

    @property
    def label(self):
        n = self.n
        return {
            "su": "SU({})/T^{}".format(n + 1, n),
            "so-odd": "SO({})/T^{}".format(2 * n + 1, n),
            "sp": "Sp({})/T^{}".format(n, n),
            "so-even": "SO({})/T^{}".format(2 * n, n),
            "g2": "G2/T",
        }[self.kind]


class FibrationData(namedtuple(
        "FibrationData", "family root_system vertical_roots horizontal_roots"
        " fiber_simple_roots m_total dim_fiber dim_base base_id fiber_id"
        " phi1_given", defaults=(None,))):
    """The partition of a family's positive roots and its dimensions.  No
    ``__slots__``: the cached ``phi1`` and ``scal`` live in the instance
    dict."""

    @cached_property
    def phi1(self):
        """The phi1 given to ``build_fibration``, else the first fiber
        eigenvalue, enumerated on first read."""
        if self.phi1_given is not None:
            return self.phi1_given
        return _first_entries(lambda c: fiber_spectrum(self, c), 1)[0].value

    @cached_property
    def scal(self):
        """scal(t) of the canonical variation, assembled on first read.

        Everything downstream needs A > 0 > E: it makes scal(t)/(m-1)
        strictly decreasing, every instant quadratic concave with one
        positive root, and the gap quadratic concave.  That is certified
        here, once; a violation is an internal fault.
        """
        poly = scal_wz(self)
        if not poly.a > 0 > poly.e:
            raise AssertionError("scal(t) breaks A > 0 > E")
        return poly


def _base_and_fiber_ids(family):
    n = family.n
    return {
        "su": ("CP^{}".format(n), "SU({})/T^{}".format(n, n - 1)),
        "so-odd": ("S^{}".format(2 * n), "SO({})/T^{}".format(2 * n, n)),
        "sp": ("Sp({})/U({})".format(n, n), "SU({})/T^{}".format(n, n - 1)),
        "so-even": ("SO({})/U({})".format(2 * n, n),
                    "SU({})/T^{}".format(n, n - 1)),
        "g2": ("G2/SO(4)", "S^2xS^2"),
    }[family.kind]


def build_fibration(family, phi1=None):
    """Assemble the vertical/horizontal partition and dimension data.

    The fiber's simple roots are the vertical roots that are not a sum
    of two vertical roots: n-1 for su, sp and so-even, n for so-odd, 2
    for g2.  phi1, which the bifurcation test reads, is the first fiber
    eigenvalue under G's form, which the canonical variation puts on
    the fiber (su n=2: 2/3; 1 under the fiber's own form).  By default it
    is derived when first read; pass a value to re-run the test.
    """
    if phi1 is not None:
        phi1 = Fraction(phi1)
        if phi1 <= 0:
            raise ValueError("phi1 must be positive")
    rs = build_root_system(family.root_family)
    # A row ends in k_n*|alpha_n|**2, k_n the coefficient on the last
    # simple root alpha_n; vertical is k_n even.
    rows, _ = _weyl_rows(family.root_family)
    even = 2 * sum(x * x for x in rs.simple_roots[-1])
    vertical = tuple(r for r, row in zip(rs.positive_roots, rows)
                     if row[-1] % even == 0)
    horizontal = tuple(r for r in rs.positive_roots if r not in vertical)
    sums = {tuple(x + y for x, y in zip(a, b))
            for a, b in combinations(vertical, 2)}
    base_id, fiber_id = _base_and_fiber_ids(family)
    return FibrationData(
        family=family, root_system=rs, vertical_roots=vertical,
        horizontal_roots=horizontal,
        fiber_simple_roots=tuple(r for r in vertical if r not in sums),
        m_total=2 * len(rs.positive_roots), dim_fiber=2 * len(vertical),
        dim_base=2 * len(horizontal), base_id=base_id, fiber_id=fiber_id,
        phi1_given=phi1)
