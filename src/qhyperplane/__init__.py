"""Exact twisted Hochschild homology of multiparameter quantum hyperplanes.

Two independent routes to the same answer: a reduced Koszul complex whose
homology is read off combinatorially from the admissible multidegrees, and a
brute-force rank computation on the genuine twisted Hochschild chain complex
truncated by multidegree.  All arithmetic is exact.  Results and specs are
immutable named tuples: change a field with ._replace, not dataclasses.replace.
"""

from .exactlinalg import SparseExactMatrix
from .hochschild import HochschildComplex, compare_with_koszul
from .homology import (HomologyReport, build_report, enumerate_admissible,
                       one_parameter_admissible, predicted_dims, scan_admissible)
from .hyperplane import (AlgebraSpec, ScalingAutomorphism, automorphism_for_top_class,
                         canonical_automorphism, commutation_factor, is_admissible,
                         is_generic, monomial_product, sigma_commutes_at)
from .koszul import ReducedComplex, check_complex, check_d_squared, check_homotopy_identity
from .qscalar import QMonomial

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec", "HochschildComplex", "HomologyReport",
    "QMonomial", "ReducedComplex", "ScalingAutomorphism",
    "SparseExactMatrix", "automorphism_for_top_class",
    "build_report", "canonical_automorphism", "check_complex",
    "check_d_squared", "check_homotopy_identity", "commutation_factor", "compare_with_koszul",
    "enumerate_admissible", "is_admissible", "is_generic",
    "monomial_product", "one_parameter_admissible", "predicted_dims",
    "scan_admissible", "sigma_commutes_at",
]
