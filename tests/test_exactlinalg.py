"""Exact rank against independent oracles (sympy, and the row-elimination
reference), its pivot rows, plus structural invariances."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
import sympy

from linalg_reference import from_rows, matmul, reference_rank, row_dicts
from qhyperplane.exactlinalg import SparseExactMatrix


def kernel_basis(m: SparseExactMatrix) -> list[dict[int, Fraction]]:
    """A basis of the right kernel, as sparse column vectors.

    Dense reduced echelon computation, independent of the sparse rank it
    checks.
    """
    rows, cols = m.n_rows, m.n_cols
    dense = [[Fraction(0)] * cols for _ in range(rows)]
    for (r, c), v in m.entries.items():
        dense[r][c] = v
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, rows) if dense[i][c] != 0), None)
        if sel is None:
            continue
        dense[r], dense[sel] = dense[sel], dense[r]
        inv = 1 / dense[r][c]
        dense[r] = [v * inv for v in dense[r]]
        for i in range(rows):
            if i != r and dense[i][c] != 0:
                f = dense[i][c]
                dense[i] = [x - f * y for x, y in zip(dense[i], dense[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = {fc: Fraction(1)}
        for prow, pc in enumerate(pivots):
            if dense[prow][fc]:
                vec[pc] = -dense[prow][fc]
        basis.append(vec)
    return basis


def test_rank_zero_matrix():
    assert SparseExactMatrix(3, 4).rank() == 0


def test_rank_identity():
    m = from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.rank() == 3


def test_rank_proportional_rows():
    m = from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1


def test_kernel_dimension_trivial_cases():
    for m, nullity in ((SparseExactMatrix(2, 3), 3),
                       (from_rows([[1, 1]]), 1)):
        assert m.n_cols - m.rank() == len(kernel_basis(m)) == nullity


small_matrices = st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3), min_size=1, max_size=5),
    min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_matches_sympy(rows):
    m = from_rows(rows)
    assert m.rank() == reference_rank(m) == sympy.Matrix(rows).rank()


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_pivot_rows_carry_the_rank(rows):
    # the reduced columns are triangular on their pivot rows, so the rows of
    # the matrix named by the pivots are independent
    m = from_rows(rows)
    rank = m.rank()
    assert len(m.pivot_rows) == rank
    assert reference_rank(from_rows([rows[r] for r in sorted(m.pivot_rows)])) == rank


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_rank_invariant_under_permutation(rows, rng):
    m = from_rows(rows)
    shuffled_rows = list(rows)
    rng.shuffle(shuffled_rows)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in shuffled_rows]
    assert from_rows(permuted).rank() == m.rank()


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_bounded_by_shape(rows):
    m = from_rows(rows)
    assert m.rank() <= min(m.n_rows, m.n_cols)


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_kernel_basis_spans_the_kernel(rows):
    m = from_rows(rows)
    basis = kernel_basis(m)
    assert len(basis) == m.n_cols - m.rank()
    for vec in basis:
        for row in row_dicts(m):
            assert sum(row.get(c, Fraction(0)) * v for c, v in vec.items()) == 0


def test_matmul_and_is_zero():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[2, 0], [-1, 1]])
    prod = matmul(a, b)
    # the exact zero at (0, 0) is dropped, never stored
    assert prod.entries == {(0, 1): Fraction(2), (1, 0): Fraction(2),
                            (1, 1): Fraction(4)}
    assert not matmul(SparseExactMatrix(2, 2), SparseExactMatrix(2, 2)).entries


def test_rejects_out_of_range_entries():
    import pytest

    with pytest.raises(IndexError):
        SparseExactMatrix(1, 1, {(1, 0): Fraction(1)})
