"""The bar-complex oracle: chain bases, d o d = 0, hand-computed homology,
the basis cap, and agreement with the reduced Koszul complex."""

from fractions import Fraction

import pytest

from qhyperplane.hochschild import (CellTooLarge, HochschildComplex,
                                    compare_with_koszul)
from qhyperplane.hyperplane import (AlgebraSpec, ScalingAutomorphism,
                                    canonical_automorphism)

PLANE = AlgebraSpec.numeric(2, {(1, 2): Fraction(2)})
PRIMES3 = AlgebraSpec.with_distinct_primes(3)

COMPLEXES = [
    HochschildComplex(PLANE, canonical_automorphism(PLANE)),
    HochschildComplex(PLANE, ScalingAutomorphism.from_rationals([Fraction(2, 3), 5])),
    HochschildComplex(PRIMES3, canonical_automorphism(PRIMES3)),
]


def _cells(n_generators):
    if n_generators == 2:
        return [(0, 0), (1, 0), (1, 1), (2, 1), (0, 3)]
    return [(0, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 1)]


@pytest.mark.parametrize("complex_", COMPLEXES)
def test_basis_has_the_counted_size(complex_):
    for gamma in _cells(complex_.spec.n):
        for n in range(4):
            assert len(complex_.basis(n, gamma)) == complex_.basis_size(n, gamma)


@pytest.mark.parametrize("complex_", COMPLEXES)
def test_boundary_squares_to_zero(complex_):
    # holds for every scaling twist, canonical or not
    for gamma in _cells(complex_.spec.n):
        for n in (1, 2):
            d_n = complex_.boundary_matrix(n, gamma)
            d_next = complex_.boundary_matrix(n + 1, gamma)
            assert d_n.matmul(d_next).is_zero()


def test_natural_dims_quantum_plane_canonical_twist():
    # the only admissible multidegrees are (0,0) and (1,1); over (1,1) the
    # classes are x1 x2, the two cross terms x1 (x) x2 and x2 (x) x1, and
    # the top class
    complex_ = COMPLEXES[0]
    assert complex_.natural_dims((0, 0), 2) == [1, 0, 0]
    assert complex_.natural_dims((1, 1), 2) == [1, 2, 1]
    for gamma in ((1, 0), (0, 1), (2, 0), (2, 1), (2, 2)):
        assert complex_.natural_dims(gamma, 2) == [0, 0, 0]


def test_basis_over_the_cap_raises():
    complex_ = HochschildComplex(PLANE, canonical_automorphism(PLANE), cap=5)
    assert len(complex_.basis(1, (1, 1))) == 4
    with pytest.raises(CellTooLarge):
        complex_.basis(2, (1, 1))          # 9 tensors


def test_oracle_rejects_symbolic_input():
    with pytest.raises(ValueError):
        HochschildComplex(AlgebraSpec.symbolic(2), ScalingAutomorphism.identity(2))
    with pytest.raises(ValueError):
        HochschildComplex(PLANE, canonical_automorphism(AlgebraSpec.symbolic(2)))


@pytest.mark.parametrize("spec", [AlgebraSpec.symbolic(2), PLANE])
def test_compare_with_koszul_agrees(spec):
    report = compare_with_koszul(spec, canonical_automorphism(spec), 2, 4)
    assert len(report.cells) == 15 * 3
    assert not report.skipped_cells
    assert report.agreement and not report.mismatches()


def test_skipped_cells_are_no_agreement():
    report = compare_with_koszul(PLANE, canonical_automorphism(PLANE), 2, 4, cap=5)
    assert report.skipped_cells
    assert not report.mismatches()
    assert not report.agreement
