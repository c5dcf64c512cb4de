"""The five homogeneous fibrations over symmetric bases.

Each flag manifold G/T fibers over a compact symmetric space G/H with
fiber a smaller flag manifold H/K.  At the root level this is just a
partition of the positive roots into a vertical set (the roots of H) and
its horizontal complement; all dimension bookkeeping follows because
every root contributes a 2-dimensional isotropy summand.
"""

from dataclasses import dataclass
from fractions import Fraction

from .rootsys import FamilyTag, build_root_system

FAMILY_KEYS = ("su", "so-odd", "sp", "so-even", "g2")

_ROOT_KIND = {"su": "A", "so-odd": "B", "sp": "C", "so-even": "D", "g2": "G2"}


@dataclass(frozen=True)
class FibrationFamily:
    """Total space selector: kind key plus the rank parameter n.

    Validity: su needs n >= 2, so-odd n >= 2 with n = 3 excluded, sp
    n >= 3, so-even n >= 4; g2 takes no parameter (n is pinned to 2).
    """

    kind: str
    n: int = 2

    def __post_init__(self):
        if self.kind not in FAMILY_KEYS:
            raise ValueError("unknown fibration family {!r}".format(self.kind))
        n = self.n
        if self.kind == "su" and n < 2:
            raise ValueError("su requires n >= 2")
        if self.kind == "so-odd" and (n < 2 or n == 3):
            raise ValueError("so-odd requires n >= 2 with n = 3 excluded")
        if self.kind == "sp" and n < 3:
            raise ValueError("sp requires n >= 3")
        if self.kind == "so-even" and n < 4:
            raise ValueError("so-even requires n >= 4")
        if self.kind == "g2" and n != 2:
            raise ValueError("g2 takes no rank parameter")

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


@dataclass(frozen=True)
class FibrationData:
    family: FibrationFamily
    root_system: object
    vertical_roots: tuple
    horizontal_roots: tuple
    m_total: int
    dim_fiber: int
    dim_base: int
    base_id: str
    fiber_id: str
    phi1: Fraction


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


def _vertical_set(family, rs):
    kind, n = family.kind, family.n
    if kind == "g2":
        # a + b and 3a + b, with a the short and b the long simple root.
        return {(1, -1, 0), (1, 1, -2)}
    vertical = set()
    for root in rs.positive_roots:
        if kind == "su":
            # Roots not touching the last of the n+1 coordinates.
            if root[n] == 0:
                vertical.add(root)
        elif kind == "so-odd":
            # Both e_i - e_j and e_i + e_j, never the short roots e_i.
            if sum(1 for c in root if c != 0) == 2:
                vertical.add(root)
        else:  # sp, so-even: the difference roots e_i - e_j only
            if min(root) < 0:
                vertical.add(root)
    return vertical


def build_fibration(family, phi1=Fraction(1)):
    """Assemble the vertical/horizontal partition and dimension data.

    phi1 is the first positive eigenvalue of the fiber Laplacian, which
    the downstream bifurcation test uses.  The default 1 is every
    fiber's intrinsic value.  Under the form of G, which the canonical
    variation restricts to the fiber, it differs: su at n=2 gives 2/3.
    Pass another value to re-run the test under that scaling.
    """
    phi1 = Fraction(phi1)
    if phi1 <= 0:
        raise ValueError("phi1 must be positive")
    rs = build_root_system(family.root_family)
    vertical = _vertical_set(family, rs)
    vertical_roots = tuple(r for r in rs.positive_roots if r in vertical)
    horizontal_roots = tuple(r for r in rs.positive_roots if r not in vertical)
    m_total = 2 * len(rs.positive_roots)
    dim_fiber = 2 * len(vertical_roots)
    dim_base = 2 * len(horizontal_roots)
    base_id, fiber_id = _base_and_fiber_ids(family)
    return FibrationData(
        family=family,
        root_system=rs,
        vertical_roots=vertical_roots,
        horizontal_roots=horizontal_roots,
        m_total=m_total,
        dim_fiber=dim_fiber,
        dim_base=dim_base,
        base_id=base_id,
        fiber_id=fiber_id,
        phi1=phi1,
    )
