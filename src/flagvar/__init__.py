"""Exact spectral data for canonical variations on maximal flag manifolds.

The library computes, in exact rational and quadratic-surd arithmetic,
the scalar curvature of the five fiber-shrinking metric families on
maximal flag manifolds, the Laplacian spectra of total space, base and
fiber, and the resulting degeneracy, bifurcation, rigidity, Morse-index
and solution-multiplicity data for the Yamabe problem on these spaces.
"""

from .bifurcation import (DegeneracyInstant, degeneracy_instants,
                          instant_base, instant_below, morse_index,
                          multiplicity_lower_bound, rigidity_threshold,
                          solve_instant)
from .catalog import (bn_dominance_row_report, cn_first_eigenvalue_report,
                      cross_check_closed_forms, scal_closed_form)
from .curvature import (ScalPoly, TripleRecord, scal_wz, su_triple_census,
                        triples)
from .fibration import (FAMILY_KEYS, FibrationData, FibrationFamily,
                        build_fibration)
from .rootsys import (CKForm, FamilyTag, RootSystem, build_root_system,
                      ck_inner, root_string, structure_constant_sq)
from .spectra import (SpectrumEntry, base_spectrum, base_spectrum_first,
                      fiber_spectrum, flag_minimum, flag_spectrum,
                      kramer_basis, weyl_dim)
from .surd import QuadraticSurd
from .variation import gap_certificate, normalized_scal

__version__ = "0.1.0"

__all__ = [
    "CKForm",
    "DegeneracyInstant",
    "FAMILY_KEYS",
    "FamilyTag",
    "FibrationData",
    "FibrationFamily",
    "QuadraticSurd",
    "RootSystem",
    "ScalPoly",
    "SpectrumEntry",
    "TripleRecord",
    "base_spectrum",
    "base_spectrum_first",
    "bn_dominance_row_report",
    "build_fibration",
    "build_root_system",
    "ck_inner",
    "cn_first_eigenvalue_report",
    "cross_check_closed_forms",
    "degeneracy_instants",
    "fiber_spectrum",
    "flag_minimum",
    "flag_spectrum",
    "gap_certificate",
    "instant_base",
    "instant_below",
    "kramer_basis",
    "morse_index",
    "multiplicity_lower_bound",
    "normalized_scal",
    "rigidity_threshold",
    "root_string",
    "scal_closed_form",
    "scal_wz",
    "solve_instant",
    "structure_constant_sq",
    "su_triple_census",
    "triples",
    "weyl_dim",
]
