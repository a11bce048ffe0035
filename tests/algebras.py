"""Algebras, and the eigenvalues of a twist, that the tests share."""

from fractions import Fraction
from math import prod

from qhyperplane.hyperplane import AlgebraSpec, MultiIndex, ScalingAutomorphism
from qhyperplane.qscalar import Scalar, all_pairs


def one_parameter(n: int, q) -> AlgebraSpec:
    """The one-parameter hyperplane x_i x_j = q x_j x_i for i > j.

    In the stored convention this means q_ij = 1/q for every i < j.
    """
    return AlgebraSpec.numeric(n, dict.fromkeys(all_pairs(n), 1 / Fraction(q)))


def apply_sigma(sigma: ScalingAutomorphism, alpha: MultiIndex) -> Scalar:
    """Eigenvalue of x^alpha under sigma: prod_i p_i^{alpha(i)}."""
    return prod((c ** a for c, a in zip(sigma.p, alpha) if a), start=Fraction(1))
