"""Algebras the tests share."""

from fractions import Fraction

from qhyperplane.hyperplane import AlgebraSpec
from qhyperplane.qscalar import all_pairs


def one_parameter(n: int, q) -> AlgebraSpec:
    """The one-parameter hyperplane x_i x_j = q x_j x_i for i > j.

    In the stored convention this means q_ij = 1/q for every i < j.
    """
    return AlgebraSpec.numeric(n, dict.fromkeys(all_pairs(n), 1 / Fraction(q)))
