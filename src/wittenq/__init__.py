"""Witten-type genera of generalized complete intersections, exactly.

Truncated q-expansions of the Witten genus, its spin^c generalization and
the mod 2 Witten genus for generalized complete intersections in products
of complex projective spaces, together with the Diophantine condition
checkers, theta/bundle oracles, modular-form fitting and exhaustive
instance search.  All arithmetic is exact rational.
"""

from .errors import (CapsMismatchError, DimensionError,
                     InsufficientDegreeError, NonIntegralError,
                     OrderMismatchError)
from .qseries import QSeries, Q2Series, rat
from .nilring import NilPoly
from .theta import (ThetaKind, jacobi_check, numeric_theta,
                    numeric_transform_suite, phi, psi_product, x_over_phi)
from .bundles import lemma42_report, lfactor_4k, lfactor_4k2, root_factor
from .gci import (ConditionReport, GCIData, codim_ok, condition_report, dims,
                  p1_matrix, thm42_ok, w2_vector)
from .genera import (GenusReport, dim4_closed_form, mod2_witten, wc_genus,
                     witten_genus)
from .modforms import (ModFormFit, eisenstein, fit, sigma,
                       theta_constant_e4_check, weight_basis)
from .search import FoundInstance, SearchQuery, find_string, find_stringc

__version__ = "0.1.0"

__all__ = [
    "CapsMismatchError", "DimensionError", "InsufficientDegreeError",
    "NonIntegralError", "OrderMismatchError",
    "QSeries", "Q2Series", "rat", "NilPoly",
    "ThetaKind", "jacobi_check", "numeric_theta",
    "numeric_transform_suite", "phi", "psi_product", "x_over_phi",
    "lemma42_report", "lfactor_4k", "lfactor_4k2", "root_factor",
    "ConditionReport", "GCIData", "codim_ok", "condition_report", "dims",
    "p1_matrix", "thm42_ok", "w2_vector",
    "GenusReport", "dim4_closed_form", "mod2_witten", "wc_genus",
    "witten_genus",
    "ModFormFit", "eisenstein", "fit", "sigma", "theta_constant_e4_check",
    "weight_basis",
    "FoundInstance", "SearchQuery", "find_string", "find_stringc",
]
