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
root, one of the coordinates ``rootsys`` grows with each root, is even.
The same rule gives the fiber's simple roots, and through them its
simple factors, whose adjoint Casimirs give phi1.  A fibration derives
scal(t) once (``scal``, which certifies A > 0 > E) and, from it, the
integer form ``gap`` of scal(t)/(m-1), which ``gap_at`` reads at (mu,
phi) for every comparison with an eigenvalue curve.  One ``_KINDS`` row
per kind also holds the base's spherical generators as integer ambient
weights; with ``catalog``, this is the only module that names a kind.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import mul

from .curvature import fiber_casimirs, scal_wz
from .exact import common_denominator
from .rootsys import FamilyTag, build_root_system

# Per kind: the root system's kind, the smallest valid rank (also the
# default), the names of the total space, the base and the fiber, as
# formats of (n, n + 1, n - 1, 2n, 2n + 1), and the spherical generators
# of the base at rank n, integer ambient weights in the order the base
# labels list them (Helgason, *Groups and Geometric Analysis*, V.4.1).
_KINDS = {
    "su": ("A", 2, ("SU({1})/T^{0}", "CP^{0}", "SU({0})/T^{2}"),
           lambda n: [(1,) + (0,) * (n - 1) + (-1,)]),
    "so-odd": ("B", 2, ("SO({4})/T^{0}", "S^{3}", "SO({3})/T^{0}"),
               lambda n: [(1,) + (0,) * (n - 1)]),
    "sp": ("C", 3, ("Sp({0})/T^{0}", "Sp({0})/U({0})", "SU({0})/T^{2}"),
           lambda n: [(2,) * k + (0,) * (n - k) for k in range(1, n + 1)]),
    "so-even": ("D", 4, ("SO({3})/T^{0}", "SO({3})/U({0})",
                         "SU({0})/T^{2}"),
                lambda n: [(1,) * k + (0,) * (n - k)
                           for k in range(2, n + 1, 2)]),
    "g2": ("G2", 2, ("G2/T", "G2/SO(4)", "S^2xS^2"),
           lambda n: [(4, -2, -2), (2, 0, -2)]),
}
FAMILY_KEYS = tuple(_KINDS)
FAMILY_ALIASES = {root[0].lower(): kind
                  for kind, (root, *_) in _KINDS.items()}


class FibrationFamily(namedtuple("FibrationFamily", "kind n")):
    """Total space selector: kind key plus the rank parameter n.  Its
    ``names`` are those of the total space, the base and the fiber, in
    that order, for the printers; nothing derived reads them.

    Validity: su needs n >= 2, so-odd n >= 2 with n = 3 excluded, sp
    n >= 3, so-even n >= 4; g2 takes no parameter (n is pinned to 2).
    n defaults to the kind's smallest valid rank.  The so-odd n = 3
    exclusion comes from the project's initial specification, which
    gives no reason for it; no derivation here needs it (without it,
    every subcommand runs at so-odd 3 and ``verify`` passes).
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
    def names(self):
        """The names of the total space, the base and the fiber."""
        n = self.n
        return [name.format(n, n + 1, n - 1, 2 * n, 2 * n + 1)
                for name in _KINDS[self.kind][2]]

    @property
    def spherical_weights(self):
        """The base's spherical generators, in label order."""
        return tuple(_KINDS[self.kind][3](self.n))


class FibrationData(namedtuple(
        "FibrationData", "family root_system vertical_roots horizontal_roots"
        " fiber_simple_roots m_total phi1_given", defaults=(None,))):
    """The partition of a family's positive roots, the fiber's simple
    roots, m = dim G/T and the phi1 given, if any.  The fiber and base
    have dimensions 2*len(vertical_roots) and 2*len(horizontal_roots),
    and their names are ``family.names``.  No ``__slots__``: the cached
    ``casimirs``, ``phi1``, ``scal`` and ``gap`` live in the instance
    dict."""

    @cached_property
    def casimirs(self):
        """``curvature.fiber_casimirs``, grouped once for phi1 and scal."""
        return tuple(fiber_casimirs(self))

    @cached_property
    def phi1(self):
        """The phi1 given to ``build_fibration``, else scale * min c_s
        over the fiber's simple factors: in a simply laced one the
        highest root is the least nonzero dominant root-lattice weight
        (Stembridge, *Adv. Math.* 136, 1998), so c_s is its least
        class-one value.  Each factor of the five kinds is simply laced;
        one with two root lengths is an internal fault.  Every root is
        Weyl-conjugate to a simple one (Humphreys, 10.3), so the check
        reads each factor's simple roots only."""
        if self.phi1_given is not None:
            return self.phi1_given
        if any(len({sum(map(mul, a, a)) for a in basis}) > 1
               for _, basis, _ in self.casimirs):
            raise AssertionError("a fiber factor has two root lengths")
        return self.root_system.scale * min(c for _, _, c in self.casimirs)

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

    def gap_at(self, mu, phi=0):
        """``gap`` read at (mu, phi): integers (a, b, e, k) with
        d*(m-1)*u*(s(u) - mu - (1/u - 1)*phi) = (a + b*u + e*u**2)/k in
        u = t**2.  With (mu, phi) = (M, F)/j over the least common
        denominator j, that is (c0*j + slope*F, c1*j + slope*(M - F),
        c2*j, den*j): e < 0 < k, and at phi = 0, a > 0."""
        c0, c1, slope, c2, den = self.gap
        (m, f), j = common_denominator((mu, phi))
        return c0 * j + slope * f, c1 * j + slope * (m - f), c2 * j, den * j

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
    """Assemble the vertical/horizontal partition and the fiber's
    simple roots.

    A root is vertical when k_n, its coefficient on the last simple root,
    is even.  The fiber's simple roots are G's others and the first
    k_n = 2 root, if any, in the root table, which is ordered by height
    sum(k) (Borel and de Siebenthal): n-1 for su, sp and so-even, n for
    so-odd, 2 for g2.  phi1 is the first fiber eigenvalue under G's form,
    which the canonical variation puts on the fiber (su n=2: 2/3; 1 under
    the fiber's own form).  It is derived when first read; pass a value to
    re-run the bifurcation test.
    """
    if phi1 is not None:
        phi1 = Fraction(phi1)
        if phi1 <= 0:
            raise ValueError("phi1 must be positive")
    rs = build_root_system(family.root_family)
    graded = list(zip(rs.positive_roots, rs.coordinates))
    vertical, horizontal = parts = ([], [])
    for root, k in graded:
        parts[k[-1] % 2].append(root)
    simple = set(rs.simple_roots[:-1]) | {next(
        (root for root, k in graded if k[-1] == 2), None)}
    return FibrationData(
        family=family, root_system=rs, vertical_roots=tuple(vertical),
        horizontal_roots=tuple(horizontal),
        fiber_simple_roots=tuple(r for r in vertical if r in simple),
        m_total=2 * len(rs.positive_roots), phi1_given=phi1)
