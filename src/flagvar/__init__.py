"""Exact spectral data for canonical variations on maximal flag manifolds.

The library computes, exactly over the rationals and quadratic surds,
the scalar curvature of the five fiber-shrinking metric families on
maximal flag manifolds, the Laplacian spectra of total space, base and
fiber, and the resulting degeneracy, bifurcation, rigidity, Morse-index
and solution-multiplicity data for the Yamabe problem on these spaces.

Every name is imported from the module that defines it.
"""

# Kept on purpose: the perfbench tracer self-test,
# test_wrapper_covers_every_public_function in
# perfbench/tests/test_perfbench.py, looks flag_minimum up in the
# package namespace.
from .spectra import flag_minimum  # noqa: F401
