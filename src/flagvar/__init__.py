"""Exact spectral data for canonical variations on maximal flag manifolds.

The library computes, exactly over the rationals and quadratic surds,
the scalar curvature of the five fiber-shrinking metric families on
maximal flag manifolds, the Laplacian spectra of total space, base and
fiber, and the resulting degeneracy, bifurcation, rigidity, Morse-index
and solution-multiplicity data for the Yamabe problem on these spaces.

The names below are the ones the demos and the README read; everything
else stays importable from its own module.
"""

from .bifurcation import (DegeneracyInstant, degeneracy_instants,
                          instant_base, instant_below, morse_index,
                          multiplicity_lower_bound, rigidity_threshold)
from .catalog import (bn_dominance_row_report, cn_first_eigenvalue_report,
                      cross_check_closed_forms, scal_closed_form)
from .curvature import ScalPoly, scal_wz, triples
from .fibration import FibrationData, FibrationFamily, build_fibration
from .rootsys import FamilyTag, RootSystem
from .spectra import (SpectrumEntry, base_spectrum, fiber_spectrum,
                      flag_minimum, flag_spectrum)
from .surd import QuadraticSurd

__version__ = "0.1.0"

__all__ = [
    "DegeneracyInstant",
    "FamilyTag",
    "FibrationData",
    "FibrationFamily",
    "QuadraticSurd",
    "RootSystem",
    "ScalPoly",
    "SpectrumEntry",
    "base_spectrum",
    "bn_dominance_row_report",
    "build_fibration",
    "cn_first_eigenvalue_report",
    "cross_check_closed_forms",
    "degeneracy_instants",
    "fiber_spectrum",
    "flag_minimum",
    "flag_spectrum",
    "instant_base",
    "instant_below",
    "morse_index",
    "multiplicity_lower_bound",
    "rigidity_threshold",
    "scal_closed_form",
    "scal_wz",
    "triples",
]
