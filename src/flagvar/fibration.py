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
are read off the vertical set.  A fibration derives scal(t) once
(``scal``, which certifies A > 0 > E) and, from it, the integer form
``gap`` of scal(t)/(m-1) that every comparison with an eigenvalue reads.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .curvature import scal_wz
from .exact import common_denominator
from .rootsys import FamilyTag, build_root_system
from .spectra import _first_entries, _weyl_rows, fiber_spectrum

# Per kind: the root system's kind, the smallest valid rank (also the
# default), and the names of the total space, the base and the fiber, as
# formats of (n, n + 1, n - 1, 2n, 2n + 1).
_KINDS = {
    "su": ("A", 2, ("SU({1})/T^{0}", "CP^{0}", "SU({0})/T^{2}")),
    "so-odd": ("B", 2, ("SO({4})/T^{0}", "S^{3}", "SO({3})/T^{0}")),
    "sp": ("C", 3, ("Sp({0})/T^{0}", "Sp({0})/U({0})", "SU({0})/T^{2}")),
    "so-even": ("D", 4, ("SO({3})/T^{0}", "SO({3})/U({0})",
                         "SU({0})/T^{2}")),
    "g2": ("G2", 2, ("G2/T", "G2/SO(4)", "S^2xS^2")),
}
FAMILY_KEYS = tuple(_KINDS)
FAMILY_ALIASES = {root[0].lower(): kind
                  for kind, (root, _, _) in _KINDS.items()}


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
        low = _KINDS[kind][1]
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
        return FamilyTag(_KINDS[self.kind][0], self.n)

    @property
    def label(self):
        return self._names()[0]

    def _names(self):
        """The names of the total space, the base and the fiber."""
        n = self.n
        return [name.format(n, n + 1, n - 1, 2 * n, 2 * n + 1)
                for name in _KINDS[self.kind][2]]


class FibrationData(namedtuple(
        "FibrationData", "family root_system vertical_roots horizontal_roots"
        " fiber_simple_roots m_total dim_fiber dim_base base_id fiber_id"
        " phi1_given", defaults=(None,))):
    """The partition of a family's positive roots and its dimensions.  No
    ``__slots__``: the cached ``phi1``, ``scal`` and ``gap`` live in the
    instance dict."""

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

    @cached_property
    def gap(self):
        """scal(t)/(m-1) over the integers: (c0, c1, slope, c2, den) with
        d*(m-1)*u*(scal(t)/(m-1) - beta) = (c0 + (c1 + slope*beta)*u
        + c2*u**2)/den in u = t**2, for every beta.  den > 0 is the least
        common denominator of a, c, e and d*(m-1), and the slope is
        -(m-1)*d*den < 0.  Read off ``scal``, so A > 0 > E is certified."""
        poly = self.scal
        (c0, c1, c2, step), den = common_denominator(
            (poly.a, poly.c, poly.e, poly.d * (self.m_total - 1)))
        return c0, c1, -step, c2, den

    def scal_over_m_minus_1(self, u):
        """s(u) = scal(t)/(m-1) at a rational u = t**2 > 0, one Fraction
        off ``gap``: (c0 + c1*u + c2*u**2)/(-slope*u).  It strictly falls
        as u rises, so an instant lies below x exactly when its beta
        exceeds s(x)."""
        c0, c1, slope, c2, _ = self.gap
        u = Fraction(u)
        un, ud = u.numerator, u.denominator
        return Fraction(c0 * ud * ud + c1 * un * ud + c2 * un * un,
                        -slope * un * ud)

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
    _, base_id, fiber_id = family._names()
    return FibrationData(
        family=family, root_system=rs, vertical_roots=vertical,
        horizontal_roots=horizontal,
        fiber_simple_roots=tuple(r for r in vertical if r not in sums),
        m_total=2 * len(rs.positive_roots), dim_fiber=2 * len(vertical),
        dim_base=2 * len(horizontal), base_id=base_id, fiber_id=fiber_id,
        phi1_given=phi1)
