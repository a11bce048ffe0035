"""The bar-complex oracle: normalized chain bases, d o d = 0, clearing,
agreement with the full bar complex, hand-computed homology, the basis cap,
and agreement with the reduced Koszul complex."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from linalg_reference import matmul, reference_rank
from qhyperplane.exactlinalg import SparseExactMatrix
from qhyperplane.hochschild import (CellTooLarge, HochschildComplex,
                                    compare_with_koszul)
from qhyperplane.hyperplane import (AlgebraSpec, ScalingAutomorphism,
                                    canonical_automorphism, compositions,
                                    iter_multidegrees)

PLANE = AlgebraSpec.numeric(2, {(1, 2): Fraction(2)})
PRIMES3 = AlgebraSpec.with_distinct_primes(3)
Q61 = 2 ** 61 - 1

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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n)
    .filter(lambda g: sum(g) <= 4)), st.integers(0, 5))
def test_basis_is_sorted_normalized_and_counted(gamma, n):
    gamma = tuple(gamma)
    spec = AlgebraSpec.with_distinct_primes(len(gamma))
    complex_ = HochschildComplex(spec, canonical_automorphism(spec))
    basis = complex_.basis(n, gamma)
    assert len(basis) == complex_.basis_size(n, gamma)
    assert basis == sorted(set(basis))
    for tensor in basis:
        assert len(tensor) == n + 1
        assert tuple(map(sum, zip(*tensor))) == gamma
        assert all(any(monomial) for monomial in tensor[1:])
    if n > sum(gamma):
        assert basis == []


def test_normalized_basis_sizes():
    # full bar complex: 3,375 and 15,876 tensors
    spec = AlgebraSpec.with_distinct_primes(4)
    complex_ = HochschildComplex(spec, canonical_automorphism(spec))
    assert complex_.basis_size(4, (2, 2, 2)) == 564
    assert len(complex_.basis(5, (2, 2, 1, 1))) == 690


def test_no_homology_above_the_total_degree():
    complex_ = COMPLEXES[2]
    for gamma in ((0, 0, 0), (1, 1, 0), (2, 0, 1)):
        total = sum(gamma)
        assert complex_.natural_dims(gamma, total + 2)[total + 1:] == [0, 0]


@pytest.mark.parametrize("complex_", COMPLEXES)
def test_boundary_squares_to_zero(complex_):
    # holds for every scaling twist, canonical or not
    for gamma in _cells(complex_.spec.n):
        for n in (1, 2):
            d_n = complex_.boundary_matrix(n, gamma)
            d_next = complex_.boundary_matrix(n + 1, gamma)
            assert not matmul(d_n, d_next).entries


@pytest.mark.parametrize("complex_", COMPLEXES)
def test_cleared_columns_leave_the_rank_unchanged(complex_):
    for gamma in _cells(complex_.spec.n):
        for n in (1, 2, 3):
            d_next = complex_.boundary_matrix(n + 1, gamma)
            rank_next = d_next.rank()
            assert len(d_next.pivot_rows) == rank_next
            d_n = complex_.boundary_matrix(n, gamma)
            cleared = complex_.boundary_matrix(n, gamma, d_next.pivot_rows)
            assert not any(c in d_next.pivot_rows for _, c in cleared.entries)
            assert cleared.rank() == d_n.rank()


def test_clearing_uses_the_pivots_of_the_next_degree():
    # (3, 4) is not admissible for the identity twist.  Clearing d_n with the
    # pivots of d_{n+2} instead of d_{n+1} gives the right dimensions in
    # nearly every small cell; this is one where it does not
    complex_ = HochschildComplex(PLANE, ScalingAutomorphism.identity(2))
    assert complex_.natural_dims((3, 4), 5) == [0] * 6


def _uncleared_dims(complex_, gamma, n_max):
    def rank(n):
        return reference_rank(complex_.boundary_matrix(n, gamma))

    return [len(complex_.basis(n, gamma)) - rank(n) - rank(n + 1)
            for n in range(n_max + 1)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
           st.lists(st.integers(0, 4), min_size=n, max_size=n)
           .filter(lambda g: sum(g) <= 4),
           st.sampled_from(["primes", "q61"]),
           st.sampled_from(["canonical", "identity", "explicit"]))),
       st.integers(0, 4))
def test_clearing_matches_uncleared_reference_ranks(case, n_max):
    gamma, algebra, twist = case
    gamma, n = tuple(gamma), len(gamma)
    spec = (AlgebraSpec.with_distinct_primes(n) if algebra == "primes"
            else AlgebraSpec.one_parameter(n, Q61))
    sigma = {"canonical": canonical_automorphism(spec),
             "identity": ScalingAutomorphism.identity(n),
             "explicit": ScalingAutomorphism.from_rationals(
                 [Fraction(2, 3), 5, Fraction(-1, 2)][:n])}[twist]
    complex_ = HochschildComplex(spec, sigma)
    assert complex_.natural_dims(gamma, n_max) == _uncleared_dims(complex_, gamma, n_max)


# -- the full bar complex, as a reference ----------------------------------------

def _full_basis(n, gamma):
    """Every (n+1)-tuple of monomials of total gamma, units anywhere."""
    return sorted(tuple(tuple(coord[slot] for coord in combo) for slot in range(n + 1))
                  for combo in product(*(compositions(g, n + 1) for g in gamma)))


def _full_natural_dims(complex_, gamma, n_max):
    def rank(n):
        if n < 1:
            return 0
        rows = {t: r for r, t in enumerate(_full_basis(n - 1, gamma))}
        cols = _full_basis(n, gamma)
        entries = {}
        for c, tensor in enumerate(cols):
            for face, coeff in complex_.boundary_faces(tensor):
                key = (rows[face], c)
                entries[key] = entries.get(key, 0) + coeff
        return SparseExactMatrix(len(rows), len(cols), entries).rank()

    return [len(_full_basis(n, gamma)) - rank(n) - rank(n + 1)
            for n in range(n_max + 1)]


def _twisted_complexes(n):
    primes = AlgebraSpec.with_distinct_primes(n)
    minus_one = AlgebraSpec.numeric(n, {(i, j): Fraction(-1) for i in range(1, n + 1)
                                        for j in range(i + 1, n + 1)})
    explicit = ScalingAutomorphism.from_rationals([Fraction(2, 3), 5, Fraction(-1, 2)][:n])
    return [HochschildComplex(primes, canonical_automorphism(primes)),
            HochschildComplex(primes, ScalingAutomorphism.identity(n)),
            HochschildComplex(primes, explicit),
            HochschildComplex(minus_one, canonical_automorphism(minus_one))]


@pytest.mark.parametrize("n_generators", [1, 2, 3])
def test_normalized_complex_has_the_full_homology(n_generators):
    # the normalized complex is quasi-isomorphic to the full bar complex
    for complex_ in _twisted_complexes(n_generators):
        for gamma in iter_multidegrees(n_generators, 3):
            assert complex_.natural_dims(gamma, 3) == _full_natural_dims(complex_, gamma, 3)


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
    assert len(complex_.basis(1, (2, 1))) == 5
    with pytest.raises(CellTooLarge):
        complex_.basis(2, (2, 1))          # 7 tensors


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
