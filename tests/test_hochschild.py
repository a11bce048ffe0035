"""The bar-complex oracle: normalized chain bases, d o d = 0, clearing the
coboundaries going up, the rescaled coboundary against the plain boundary,
agreement with the full bar complex, hand-computed homology, the basis cap,
agreement with the reduced Koszul complex, at random q too, and chi in ints
against its Fraction formula and its split-by-split reference."""

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

import qhyperplane.hochschild
from algebras import apply_sigma, one_parameter
from linalg_reference import eager_rank, from_entries, integerized, matmul, reference_rank
from qhyperplane.exactlinalg import SparseExactMatrix
from qhyperplane.hochschild import HochschildComplex, compare_with_koszul
from qhyperplane.hyperplane import (AlgebraSpec, ScalingAutomorphism, add_index,
                                    automorphism_for_top_class,
                                    canonical_automorphism, compositions,
                                    is_admissible, iter_multidegrees,
                                    monomial_product, specialize_automorphism,
                                    support, unit)
from qhyperplane.qscalar import all_pairs, distinct_primes, scalar_prod, term


def primes_spec(n):
    """The numeric algebra with distinct primes for the q_ij: the generic regime."""
    return AlgebraSpec.numeric(n, distinct_primes(n))


PLANE = AlgebraSpec.numeric(2, {(1, 2): Fraction(2)})
PRIMES3 = primes_spec(3)
Q61 = 2 ** 61 - 1
BOUND = 6   # the largest total degree the fixed complexes below are asked for

COMPLEXES = [
    HochschildComplex(PLANE, canonical_automorphism(PLANE), BOUND),
    HochschildComplex(PLANE, ScalingAutomorphism.from_rationals([Fraction(2, 3), 5]), BOUND),
    HochschildComplex(PRIMES3, canonical_automorphism(PRIMES3), BOUND),
]


def unpacked(complex_, tensor, n):
    """A packed tensor of degree n as its n + 1 multi-indices: the tensor is
    the int sum of a_i S^(n-i), S = R^N, and slot a_i the int sum of its
    coordinates times R^(N-j), R = bound + 1, the first generator's leading."""
    digits = []
    for _ in range((n + 1) * complex_.spec.n):
        tensor, d = divmod(tensor, complex_._radix)
        digits.append(d)
    assert tensor == 0, "more than n + 1 slots"
    digits.reverse()
    return tuple(tuple(digits[i:i + complex_.spec.n])
                 for i in range(0, len(digits), complex_.spec.n))


def unpacked_basis(complex_, n, gamma):
    return [unpacked(complex_, t, n) for t in complex_.basis(n, gamma)]


def by_position(complex_, delta, n, gamma):
    """boundary_matrix(n, gamma) with each row, a packed tensor below
    S^(n+1), moved to its position in basis(n, gamma), and each column, a
    tensor of degree n - 1, to its position in basis(n - 1, gamma): the
    reference helpers allocate every row, so they are never handed the
    packed rows."""
    row = {t: r for r, t in enumerate(complex_.basis(n, gamma))}
    col = {t: c for c, t in enumerate(complex_.basis(n - 1, gamma))}
    return from_entries(complex_.basis_size(n, gamma), delta.n_cols, {
        (row[a], col[b]): v for (a, b), v in delta.entries.items()})


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
    spec = primes_spec(len(gamma))
    complex_ = HochschildComplex(spec, canonical_automorphism(spec), 4)
    basis = unpacked_basis(complex_, n, gamma)
    assert len(basis) == complex_.basis_size(n, gamma)
    assert basis == sorted(set(basis))
    for tensor in basis:
        assert len(tensor) == n + 1
        assert tuple(map(sum, zip(*tensor))) == gamma
        assert all(any(monomial) for monomial in tensor[1:])
    if n > sum(gamma):
        assert basis == []


def test_slots_pack_the_lexicographic_basis():
    # in radix R = bound + 1, a coordinate equal to the bound is the digit
    # R - 1; int order on the packed slots is lex order on the multi-indices
    spec = primes_spec(3)
    complex_ = HochschildComplex(spec, canonical_automorphism(spec), 3)
    for gamma in ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 2, 0), (1, 1, 1)):
        for n in range(4):
            expected = [t for t in _full_basis(n, gamma) if all(map(any, t[1:]))]
            assert unpacked_basis(complex_, n, gamma) == expected
            assert complex_.basis(n, gamma) == sorted(complex_.basis(n, gamma))


def test_a_coordinate_over_the_bound_is_refused():
    # with R = 4, (0, 0, 4) would alias (0, 1, 0)
    spec = primes_spec(3)
    complex_ = HochschildComplex(spec, canonical_automorphism(spec), 3)
    for build in (lambda: complex_.basis(1, (0, 0, 4)),
                  lambda: complex_.boundary_matrix(1, (0, 0, 4)),
                  lambda: complex_.natural_dims((4, 0, 0), 1)):
        with pytest.raises(ValueError):
            build()


def test_normalized_basis_sizes():
    # full bar complex: 3,375 and 15,876 tensors
    spec = primes_spec(4)
    complex_ = HochschildComplex(spec, canonical_automorphism(spec), 6)
    assert complex_.basis_size(4, (2, 2, 2)) == 564
    assert len(complex_.basis(5, (2, 2, 1, 1))) == 690


def test_no_homology_above_the_total_degree():
    complex_ = COMPLEXES[2]
    for gamma in ((0, 0, 0), (1, 1, 0), (2, 0, 1)):
        total = sum(gamma)
        assert complex_.natural_dims(gamma, total + 2)[total + 1:] == [0, 0]


# -- the plain boundary, as a reference ----------------------------------------

def reference_faces(complex_, tensor):
    """Faces of one tensor in the plain basis [a_0|...|a_n], each with the
    monomial product of the slots it merges; sigma acts on the last slot
    before the wrap-around product."""
    n = len(tensor) - 1
    if n < 1:
        return []
    spec = complex_.spec
    faces = []
    sign = 1
    for i in range(n):
        coeff, merged = monomial_product(spec, tensor[i], tensor[i + 1])
        faces.append((tensor[:i] + (merged,) + tensor[i + 2:], sign * coeff))
        sign = -sign
    twist = apply_sigma(complex_.sigma, tensor[n])
    coeff, merged = monomial_product(spec, tensor[n], tensor[0])
    faces.append(((merged,) + tensor[1:n], sign * twist * coeff))
    return faces


def reference_matrix(complex_, n, gamma, row_basis, col_basis):
    """The plain boundary from degree n to n-1 between the given bases."""
    rows = {t: r for r, t in enumerate(row_basis)}
    entries = {}
    for c, tensor in enumerate(col_basis):
        for face, coeff in reference_faces(complex_, tensor):
            key = (rows[face], c)
            entries[key] = entries.get(key, 0) + coeff
    return from_entries(len(rows), len(col_basis), entries)


def _normalized_reference(complex_, n, gamma):
    if n < 1:
        return from_entries(0, len(complex_.basis(0, gamma)), {})
    return reference_matrix(complex_, n, gamma, unpacked_basis(complex_, n - 1, gamma),
                            unpacked_basis(complex_, n, gamma))


def _weight(spec, tensor):
    """W(a): x^{a_0} ... x^{a_n} = W(a) x^gamma, folded from the left."""
    weight, acc = Fraction(1), tensor[0]
    for slot in tensor[1:]:
        coeff, acc = monomial_product(spec, acc, slot)
        weight *= coeff
    return weight


def _den(complex_, tensor):
    """den(a): the denominator of chi_gamma(a_n), read off the plain
    wrap-around face of a in the rescaled basis."""
    face, coeff = reference_faces(complex_, tensor)[-1]
    return (_weight(complex_.spec, face) / _weight(complex_.spec, tensor) * coeff).denominator


RESCALING_COMPLEXES = COMPLEXES + [
    HochschildComplex(one_parameter(2, Q61), canonical_automorphism(
        one_parameter(2, Q61)), BOUND),
    HochschildComplex(PRIMES3, ScalingAutomorphism.from_rationals([Fraction(2, 3), 5, -7]),
                      BOUND),
]


@pytest.mark.parametrize("complex_", RESCALING_COMPLEXES)
def test_rescaled_boundary_is_the_plain_one_conjugated_by_w(complex_):
    # entry (a, b) of d_n transposed is den(a) W(b) / W(a) * plain d_n[b, a],
    # an int: inner faces are +-den(a), and the wrap-around face carries the
    # numerator of chi of the last slot
    spec = complex_.spec
    for gamma in _cells(spec.n) + [(3, 2)[:spec.n] + (1,) * (spec.n - 2)]:
        for n in (1, 2, 3):
            rescaled = by_position(complex_, complex_.boundary_matrix(n, gamma), n, gamma)
            plain = _normalized_reference(complex_, n, gamma)
            rows = unpacked_basis(complex_, n, gamma)
            cols = unpacked_basis(complex_, n - 1, gamma)
            expected = {(a, b): _den(complex_, rows[a]) * _weight(spec, cols[b])
                        / _weight(spec, rows[a]) * v
                        for (b, a), v in plain.entries.items()}
            assert rescaled.entries == expected
            assert all(type(v) is int for v in rescaled.entries.values())
            assert all(abs(v) == _den(complex_, rows[a])
                       for (a, b), v in rescaled.entries.items()
                       if cols[b][1:] != rows[a][1:n])


@pytest.mark.parametrize("complex_", RESCALING_COMPLEXES + [
    HochschildComplex(PLANE, ScalingAutomorphism.identity(2), BOUND)])
def test_stored_columns_hold_nonzero_ints_in_range(complex_):
    # the matrix takes each column as cofaces builds it, so each must hold
    # only nonzero ints on rows of the basis: under the identity twist the
    # wrap-around face cancels an inner one, and the zero is dropped.
    # A row is the coface itself, packed, so it is a tensor of the basis, and
    # int order on rows is lex order on their slots.  A column is labelled by
    # its tensor: the kept ones of the basis one degree down, ascending
    for gamma in _cells(complex_.spec.n):
        cleared = frozenset()
        for n in (1, 2, 3):
            kept = complex_.boundary_matrix(n, gamma, cleared)
            assert kept.columns == [b for b in complex_.basis(n - 1, gamma) if b not in cleared]
            kept.rank()
            cleared = kept.pivot_rows
            delta = complex_.boundary_matrix(n, gamma)
            assert delta.columns == complex_.basis(n - 1, gamma)
            assert delta.n_cols == len(delta.columns)
            basis = set(complex_.basis(n, gamma))
            for b in delta.columns:
                column = complex_.cofaces(n, b)
                assert all(type(v) is int and v != 0 for v in column.values())
                assert all(0 <= r < complex_._radix ** (complex_.spec.n * (n + 1))
                           for r in column)
                assert basis.issuperset(column)
                assert ([unpacked(complex_, r, n) for r in sorted(column)]
                        == sorted(unpacked(complex_, r, n) for r in column))


def fixture_complex(n, algebra, twist, bound):
    """The complex of n generators at distinct primes, q = 2^61 - 1 or
    q = -1, under the canonical, identity or an explicit twist."""
    spec = {"primes": primes_spec(n), "q61": one_parameter(n, Q61),
            "minus-one": one_parameter(n, -1)}[algebra]
    sigma = {"canonical": canonical_automorphism(spec),
             "identity": ScalingAutomorphism.identity(n),
             "explicit": ScalingAutomorphism.from_rationals(
                 [Fraction(2, 3), 5, Fraction(-1, 2)][:n])}[twist]
    return HochschildComplex(spec, sigma, bound)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
           st.lists(st.integers(0, 4), min_size=n, max_size=n)
           .filter(lambda g: sum(g) <= 4),
           st.sampled_from(["primes", "q61", "minus-one"]),
           st.sampled_from(["canonical", "identity", "explicit"]))),
       st.integers(0, 4))
def test_natural_dims_match_the_plain_boundary(case, n_max):
    gamma, algebra, twist = case
    gamma = tuple(gamma)
    complex_ = fixture_complex(len(gamma), algebra, twist, 4)

    def rank(k):
        return reference_rank(_normalized_reference(complex_, k, gamma))

    assert complex_.natural_dims(gamma, n_max) == [
        len(complex_.basis(k, gamma)) - rank(k) - rank(k + 1) for k in range(n_max + 1)]


def _transposed_boundary(complex_, n, gamma):
    """d_n transposed: the rows of boundary_matrix(n, gamma), by position,
    divided by den."""
    delta = by_position(complex_, complex_.boundary_matrix(n, gamma), n, gamma)
    rows = unpacked_basis(complex_, n, gamma)
    return from_entries(delta.n_rows, delta.n_cols, {
        (a, b): Fraction(v, _den(complex_, rows[a])) for (a, b), v in delta.entries.items()})


@pytest.mark.parametrize("complex_", COMPLEXES)
def test_boundary_squares_to_zero(complex_):
    # d_n d_{n+1} = 0 read on the coboundaries, their rows divided by den;
    # holds for every scaling twist, canonical or not
    for gamma in _cells(complex_.spec.n):
        for n in (1, 2):
            delta_n = _transposed_boundary(complex_, n, gamma)
            delta_next = _transposed_boundary(complex_, n + 1, gamma)
            assert not matmul(delta_next, delta_n).entries


@pytest.mark.parametrize("complex_", COMPLEXES)
def test_cleared_columns_leave_the_rank_unchanged(complex_):
    # each coboundary is cleared by the pivots of the degree below
    for gamma in _cells(complex_.spec.n):
        for n in (1, 2, 3):
            below = complex_.boundary_matrix(n, gamma)
            rank_below = below.rank()
            assert len(below.pivot_rows) == rank_below
            delta = complex_.boundary_matrix(n + 1, gamma)
            cleared = complex_.boundary_matrix(n + 1, gamma, below.pivot_rows)
            cols = complex_.basis(n, gamma)
            assert below.pivot_rows <= set(cols)
            assert {b for _, b in cleared.entries} <= set(cols) - below.pivot_rows
            assert cleared.rank() == delta.rank()


def test_clearing_uses_the_pivots_of_the_degree_below():
    # (3, 4) is not admissible for the identity twist.  Clearing a coboundary
    # with the pivots from two degrees below instead of one gives the right
    # dimensions in nearly every small cell; this is one where it does not
    complex_ = HochschildComplex(PLANE, ScalingAutomorphism.identity(2), 7)
    assert complex_.natural_dims((3, 4), 5) == [0] * 6


def _uncleared_dims(complex_, gamma, n_max):
    def rank(n):
        return reference_rank(by_position(complex_, complex_.boundary_matrix(n, gamma),
                                          n, gamma))

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
    complex_ = fixture_complex(len(gamma), algebra, twist, 4)
    gamma = tuple(gamma)
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
        return integerized(reference_matrix(complex_, n, gamma, _full_basis(n - 1, gamma),
                                            _full_basis(n, gamma))).rank()

    return [len(_full_basis(n, gamma)) - rank(n) - rank(n + 1)
            for n in range(n_max + 1)]


def _twisted_complexes(n):
    primes = primes_spec(n)
    minus_one = AlgebraSpec.numeric(n, {(i, j): Fraction(-1) for i in range(1, n + 1)
                                        for j in range(i + 1, n + 1)})
    explicit = ScalingAutomorphism.from_rationals([Fraction(2, 3), 5, Fraction(-1, 2)][:n])
    return [HochschildComplex(primes, canonical_automorphism(primes), 3),
            HochschildComplex(primes, ScalingAutomorphism.identity(n), 3),
            HochschildComplex(primes, explicit, 3),
            HochschildComplex(minus_one, canonical_automorphism(minus_one), 3)]


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


def test_natural_dims_releases_the_bases_of_its_multidegree():
    # no basis is kept, and the chi weights are held for one multidegree
    # alone; the tails and splits, shared across multidegrees, stay, and so
    # do the p_i and the swaps t_ij as int pairs and the radix of the packed
    # slots
    complex_ = HochschildComplex(PRIMES3, canonical_automorphism(PRIMES3), BOUND)
    for gamma in ((1, 1, 1), (2, 0, 1), (1, 1, 1)):
        dims = complex_.natural_dims(gamma, 3)
        assert set(vars(complex_)) == {"spec", "sigma", "_tail_cache", "_split_cache",
                                       "_chi_at", "_p", "_swaps", "_radix"}
        assert complex_._chi_at[0] == complex_._pack(gamma)
        assert complex_._tail_cache
        assert dims == COMPLEXES[2].natural_dims(gamma, 3)


def test_natural_dims_never_builds_the_top_tails_of_its_multidegree(monkeypatch):
    # the coboundary d_{n_max+1} has the tensors of degree n_max as columns
    # and its cofaces as packed rows, so natural_dims asks for no basis above
    # degree n_max and no tail of n_max + 2 slots; the (n_max + 1)-slot tails
    # stay, and every later multidegree gets the dimensions a fresh complex
    # gives
    degrees, slots = [], []
    basis, tails = HochschildComplex.basis, HochschildComplex._tails

    def basis_spy(self, n, gamma):
        degrees.append(n)
        return basis(self, n, gamma)

    def tails_spy(self, m, k):
        slots.append(k)
        return tails(self, m, k)

    monkeypatch.setattr(HochschildComplex, "basis", basis_spy)
    monkeypatch.setattr(HochschildComplex, "_tails", tails_spy)
    complex_ = HochschildComplex(PRIMES3, canonical_automorphism(PRIMES3), 5)
    for gamma in iter_multidegrees(3, 5):
        dims = complex_.natural_dims(gamma, 2)
        assert (complex_._pack(gamma), 4) not in complex_._tail_cache
        assert (complex_._pack(gamma), 3) in complex_._tail_cache
        assert dims == HochschildComplex(PRIMES3, complex_.sigma, 5).natural_dims(gamma, 2)
    assert max(degrees) == 2 and max(slots) == 3
    # what is never built exists: four nonunit slots fit in total degree 4
    assert complex_._tails(complex_._pack((1, 1, 2)), 4)


@pytest.mark.parametrize("spec, sigma", [
    (PLANE, canonical_automorphism(PLANE)),
    (PRIMES3, ScalingAutomorphism.from_rationals([Fraction(2, 3), 5, -7]))],
    ids=["plane", "primes3-explicit"])
def test_a_second_multidegree_gets_its_own_weights(spec, sigma):
    # chi is held for the current gamma only: a complex that has built
    # matrices at one gamma builds the same matrix at another as a fresh
    # complex does
    first, second = (2, 1, 1)[:spec.n], (3, 1, 1)[:spec.n]
    complex_ = HochschildComplex(spec, sigma, 5)
    for n in (1, 2, 3):
        complex_.boundary_matrix(n, first)
    for n in (1, 2, 3):
        fresh = HochschildComplex(spec, sigma, 5).boundary_matrix(n, second)
        assert complex_.boundary_matrix(n, second).entries == fresh.entries


@pytest.mark.parametrize("complex_, bound", [
    (COMPLEXES[0], 4), (COMPLEXES[2], 4), (RESCALING_COMPLEXES[3], 6)],
    ids=["plane", "primes3", "q61"])
def test_only_homology_reduces_to_zero(complex_, bound, monkeypatch):
    # going up in degree, each coboundary is cleared by the pivot rows of the
    # one below, so the columns kept that reduce to zero number exactly the
    # homology.  Going down, nothing clears the top boundary, and every
    # column of its kernel would reduce to zero as well
    calls = []
    boundary_matrix, rank = HochschildComplex.boundary_matrix, SparseExactMatrix.rank

    def matrix_spy(self, n, gamma, cleared=frozenset()):
        calls.append(len(cleared))
        return boundary_matrix(self, n, gamma, cleared)

    def rank_spy(self):
        result = rank(self)
        calls.append(self.n_cols - calls.pop() - result)
        return result

    monkeypatch.setattr(HochschildComplex, "boundary_matrix", matrix_spy)
    monkeypatch.setattr(SparseExactMatrix, "rank", rank_spy)
    for gamma in iter_multidegrees(complex_.spec.n, bound):
        calls.clear()
        dims = complex_.natural_dims(gamma, 2)
        assert len(calls) == 3 and sum(calls) == sum(dims)


# -- first-sight pivots: columns built only where rank needs them -------------

def _kept_matrices(complex_, gamma, n_max):
    """The cleared coboundaries natural_dims reduces at gamma, each reduced."""
    cleared = frozenset()
    for n in range(1, n_max + 2):
        delta = complex_.boundary_matrix(n, gamma, cleared)
        yield n, delta
        delta.rank()
        cleared = delta.pivot_rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
           st.lists(st.integers(0, 5), min_size=n, max_size=n)
           .filter(lambda g: sum(g) <= 5),
           st.sampled_from(["primes", "q61", "minus-one"]),
           st.sampled_from(["canonical", "identity", "explicit"]))),
       st.integers(0, 4))
@example(((2, 2, 1), "primes", "canonical"), 3)
def test_a_read_off_pivot_is_the_largest_row_of_the_built_column(case, n_max):
    # the pivot read off b, with no column built, is the largest row of
    # cofaces(n, b) for every kept column that has one; a column has one
    # exactly when n >= 2 and some slot i >= 1 of b splits into two nonunits.
    # The example has kept tensors such as (0, x1 x2, x1 x2) with two such
    # slots, where the first would give a smaller row than the last
    gamma, algebra, twist = case
    complex_ = fixture_complex(len(gamma), algebra, twist, 5)
    for n, delta in _kept_matrices(complex_, tuple(gamma), n_max):
        assert set(delta.pivots) <= set(delta.columns)
        for b in delta.columns:
            splittable = n >= 2 and any(
                sum(slot) > 1 for slot in unpacked(complex_, b, n - 1)[1:])
            assert (b in delta.pivots) == splittable
            if splittable:
                assert delta.pivots[b] == max(complex_.cofaces(n, b))


def _spy_cofaces(monkeypatch):
    built = []
    cofaces = HochschildComplex.cofaces

    def spy(self, n, b):
        built.append(b)
        return cofaces(self, n, b)

    monkeypatch.setattr(HochschildComplex, "cofaces", spy)
    return built


@pytest.mark.parametrize("algebra, twist", [
    ("primes", "canonical"), ("primes", "identity"), ("primes", "explicit"),
    ("q61", "canonical"), ("minus-one", "canonical")])
def test_lazy_rank_is_the_eager_rank(algebra, twist):
    # the lazy reduction gives the rank and pivot rows of building every
    # column first, on every cleared coboundary of a grid
    complex_ = fixture_complex(3, algebra, twist, 4)
    for gamma in iter_multidegrees(3, 4):
        for n, delta in _kept_matrices(complex_, gamma, 3):
            assert (delta.rank(), delta.pivot_rows) == eager_rank(delta)


def test_a_clash_builds_a_recorded_column(monkeypatch):
    # at (1, 1, 2) under the canonical twist, the cleared d_3 has clashing
    # columns that reduce against columns recorded by their read-off pivots
    # and not built until then; the ranks stay those of the eager reduction
    complex_ = fixture_complex(3, "primes", "canonical", 4)
    built = _spy_cofaces(monkeypatch)
    delta = next(delta for n, delta in _kept_matrices(complex_, (1, 1, 2), 2)
                 if n == 3)
    recorded = {}
    for b in sorted(delta.pivots):
        recorded.setdefault(delta.pivots[b], b)
    built.clear()
    rank = delta.rank()
    assert set(recorded.values()) & set(built)
    assert len(built) < len(delta.columns)
    assert (rank, delta.pivot_rows) == eager_rank(delta)


def test_verify_rank_builds_few_of_its_kept_columns(monkeypatch):
    # the verify-rank configuration (N = 2, bound 8, q = 2^61 - 1): all but
    # a few kept columns have their pivot read off and never clash
    complex_ = fixture_complex(2, "q61", "canonical", 8)
    built = _spy_cofaces(monkeypatch)
    kept = []
    boundary_matrix = HochschildComplex.boundary_matrix

    def matrix_spy(self, n, gamma, cleared=frozenset()):
        delta = boundary_matrix(self, n, gamma, cleared)
        kept.append(len(delta.columns))
        return delta

    monkeypatch.setattr(HochschildComplex, "boundary_matrix", matrix_spy)
    for gamma in iter_multidegrees(2, 8):
        complex_.natural_dims(gamma, 2)
    assert sum(kept) == 2105
    assert len(built) <= sum(kept) // 10


@pytest.mark.parametrize("algebra, twist", [
    ("primes", "canonical"), ("primes", "explicit"), ("q61", "canonical")])
def test_a_matrix_keeps_the_weights_of_its_own_multidegree(algebra, twist):
    # chi is cached for one gamma, and a matrix builds its columns late: a
    # matrix of gamma_1 reduced after columns of gamma_2 were built still has
    # the rank and entries a fresh complex gives
    first, second = (2, 1, 1), (1, 3, 1)
    for n in (1, 2, 3):
        complex_ = fixture_complex(3, algebra, twist, 5)
        delta = complex_.boundary_matrix(n, first)
        other = complex_.boundary_matrix(n, second)
        other.rank()
        assert other.entries       # the weights of gamma_2 are the cached ones
        fresh = fixture_complex(3, algebra, twist, 5).boundary_matrix(n, first)
        assert delta.rank() == fresh.rank() and delta.pivot_rows == fresh.pivot_rows
        assert delta.entries == fresh.entries


@pytest.mark.parametrize("spec, n_max, bound, cap", [
    (PLANE, 2, 4, 5), (PRIMES3, 3, 4, 10)], ids=["plane", "primes3"])
def test_compare_builds_no_basis_over_the_cap(spec, n_max, bound, cap, monkeypatch):
    # compare_with_koszul alone decides the cap: it asks for no basis larger
    # than cap, and skips cell (gamma, n) exactly when a basis in some degree
    # k <= n + 1 at gamma is larger
    sigma = canonical_automorphism(spec)
    built = []
    basis = HochschildComplex.basis

    def spy(self, n, gamma):
        tensors = basis(self, n, gamma)
        built.append(len(tensors))
        return tensors

    monkeypatch.setattr(HochschildComplex, "basis", spy)
    report = compare_with_koszul(spec, sigma, n_max, bound, cap=cap)
    assert built and max(built) <= cap
    monkeypatch.undo()
    sizes = HochschildComplex(spec, sigma, bound)
    skipped = [(cell.gamma, cell.n) for cell in report.cells if cell.skipped]
    assert skipped and len(skipped) < len(report.cells)
    assert skipped == [(cell.gamma, cell.n) for cell in report.cells
                       if any(len(sizes.basis(k, cell.gamma)) > cap
                              for k in range(cell.n + 2))]


def test_oracle_rejects_symbolic_input():
    with pytest.raises(ValueError):
        HochschildComplex(AlgebraSpec.symbolic(2), ScalingAutomorphism.identity(2), 2)
    with pytest.raises(ValueError):
        HochschildComplex(PLANE, canonical_automorphism(AlgebraSpec.symbolic(2)), 2)


@pytest.mark.parametrize("spec", [AlgebraSpec.symbolic(2), PLANE])
def test_compare_with_koszul_agrees(spec):
    report = compare_with_koszul(spec, canonical_automorphism(spec), 2, 4)
    assert len(report.cells) == 15 * 3
    assert not report.skipped_cells
    assert report.agreement and not report.mismatches()


def test_symbolic_input_avoids_the_primes_of_sigma():
    # at q12 = 2 the twist p = (1/2, 2) makes (1, 1) admissible; over the
    # symbol q12 it is not, and only gamma = 0 carries homology
    sigma = ScalingAutomorphism.from_rationals([Fraction(1, 2), 2])
    report = compare_with_koszul(AlgebraSpec.symbolic(2), sigma, 2, 3)
    assert report.agreement
    assert [(c.gamma, c.n) for c in report.cells if c.natural_predicted] == [((0, 0), 0)]


P_VALUES = [1, -1, 2, -2, Fraction(1, 2), 3, Fraction(2, 3), Fraction(6, 35)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.sampled_from(P_VALUES), min_size=n, max_size=n)),
    st.integers(0, 4), st.integers(0, 3))
def test_specialized_prediction_is_the_symbolic_one(p, bound, n_max):
    # the oracle runs at primes; its dimensions must be the symbolic count,
    # C(|support gamma|, n) on admissible gamma and zero elsewhere
    spec = AlgebraSpec.symbolic(len(p))
    sigma = ScalingAutomorphism.from_rationals(p)
    report = compare_with_koszul(spec, sigma, n_max, bound)
    for cell in report.cells:
        expected = (comb(len(support(cell.gamma)), cell.n)
                    if is_admissible(spec, sigma, cell.gamma) else 0)
        assert cell.natural_oracle == expected
    assert report.agreement


def test_skipped_cells_are_no_agreement():
    report = compare_with_koszul(PLANE, canonical_automorphism(PLANE), 2, 4, cap=5)
    assert report.skipped_cells
    assert not report.mismatches()
    assert not report.agreement


# -- chi in ints, and the product it is read from ----------------------------------

CHI_VALUES = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, Fraction(2, 3), Q61]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
           st.lists(st.sampled_from(CHI_VALUES), min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2),
           st.lists(st.sampled_from(CHI_VALUES), min_size=n, max_size=n),
           st.lists(st.integers(0, 4), min_size=n, max_size=n)
           .filter(lambda g: sum(g) <= 4))))
def test_chi_is_the_fraction_formula(case):
    # chi_gamma(y) = p^y m(y, x) / m(x, y) for every split x + y = gamma with
    # y nonunit, in lowest terms with a positive denominator, against the
    # products and sigma in Fraction arithmetic
    q, p, gamma = case
    n, gamma = len(p), tuple(gamma)
    spec = AlgebraSpec.numeric(n, dict(zip(all_pairs(n), map(Fraction, q))))
    sigma = ScalingAutomorphism.from_rationals(p)
    complex_ = HochschildComplex(spec, sigma, 4)
    weights = {unpacked(complex_, y, 0)[0]: v
               for y, v in complex_._chi(complex_._pack(gamma)).items()}
    expected = {}
    for y in product(*(range(g + 1) for g in gamma)):
        if any(y):
            x = tuple(g - v for g, v in zip(gamma, y))
            chi = (apply_sigma(sigma, y) * monomial_product(spec, y, x)[0]
                   / monomial_product(spec, x, y)[0])
            expected[y] = chi.numerator, chi.denominator
    assert weights == expected


def reference_chi(complex_, m):
    """(num, den) of chi_gamma(a) in lowest terms, gamma packed as m, for the
    last slot a of each split (r, a) of gamma: p^a prod_{j<k} s_jk^(a_k r_j -
    r_k a_j) in ints, x_k x_j = s_jk x_j x_k read off monomial_product for
    this gamma.  Kept as the reference for the character table."""
    n, inside = complex_.spec.n, [i for i, g in enumerate(complex_._digits(m), start=1) if g]
    swaps = [(j - 1, k - 1, *monomial_product(complex_.spec, unit(n, k), unit(n, j))[0]
              .as_integer_ratio()) for j, k in combinations(inside, 2)]
    weights = {}
    for x, y in complex_._splits(m):
        r, a = complex_._digits(x), complex_._digits(y)
        num = den = 1
        for (p_num, p_den), e in zip(complex_._p, a):
            num, den = num * p_num ** e, den * p_den ** e
        for j, k, s_num, s_den in swaps:
            e = a[k] * r[j] - r[k] * a[j]
            up, down = (s_num, s_den) if e > 0 else (s_den, s_num)
            num, den = num * up ** abs(e), den * down ** abs(e)
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        weights[y] = num // g, den // g
    return weights


# the q_ij of each kind of algebra, drawn per pair; "symbolic" is specialized
# at the distinct primes compare_with_koszul picks
CHI_ALGEBRAS = {
    "primes": None,
    "rational": [Fraction(-2, 3), Fraction(1, 2), Fraction(-5, 7), Fraction(3, 4), -2],
    "minus-one": [-1],
    "61-bit": [Q61, -Q61, Fraction(1, Q61), Fraction(Q61, 2 ** 60)],
    "symbolic": None,
}
CHI_TWISTS = {
    "canonical": lambda spec, p, alpha: canonical_automorphism(spec),
    "identity": lambda spec, p, alpha: ScalingAutomorphism.identity(spec.n),
    "explicit": lambda spec, p, alpha: ScalingAutomorphism.from_rationals(p),
    "solve-top": lambda spec, p, alpha: automorphism_for_top_class(spec, alpha),
}


@pytest.mark.parametrize("algebra", CHI_ALGEBRAS)
@pytest.mark.parametrize("twist", CHI_TWISTS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_chi_table_is_the_split_by_split_reference(algebra, twist, data):
    # the character table equals the per-split formula on every gamma up to
    # the bound, under every kind of twist
    n = data.draw(st.integers(1, 4))
    values = CHI_ALGEBRAS[algebra]
    if algebra == "symbolic":
        spec = AlgebraSpec.symbolic(n)
    elif values is None:
        spec = primes_spec(n)
    else:
        spec = AlgebraSpec.numeric(n, {pair: Fraction(data.draw(st.sampled_from(values)))
                                       for pair in all_pairs(n)})
    p = data.draw(st.lists(st.sampled_from(CHI_VALUES), min_size=n, max_size=n))
    alpha = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    sigma = CHI_TWISTS[twist](spec, p, alpha)
    if algebra == "symbolic":
        q = distinct_primes(n, prod(abs(x) for c in sigma.p
                                    for x in term(c)[0].as_integer_ratio()))
        spec, sigma = AlgebraSpec.numeric(n, q), specialize_automorphism(sigma, q)
    complex_ = HochschildComplex(spec, sigma, 4)
    for gamma in iter_multidegrees(n, 4):
        m = complex_._pack(gamma)
        assert complex_._chi(m) == reference_chi(complex_, m)


def _swapped_product(spec, a, b):
    """monomial_product with q_kj read where q_jk belongs: a fault in the
    product that only the oracle reads."""
    coeff = scalar_prod(spec.q_power(k, j, -a_k * b_j) for j, b_j in enumerate(b, start=1) if b_j
                        for k, a_k in enumerate(a[j:], start=j + 1) if a_k)
    return coeff, add_index(a, b)


def test_the_oracle_multiplies_through_monomial_product(monkeypatch):
    # the swap scalars come from the algebra's product, so a fault there
    # reaches the oracle and not the Koszul prediction
    spec = AlgebraSpec.numeric(3, {(1, 2): 2, (1, 3): 3, (2, 3): 5})
    sigma = canonical_automorphism(spec)
    assert compare_with_koszul(spec, sigma, 3, 4).agreement
    monkeypatch.setattr(qhyperplane.hochschild, "monomial_product", _swapped_product)
    assert compare_with_koszul(spec, sigma, 3, 4).mismatches()


Q_VALUES = [1, -1, 2, -2, Fraction(1, 2), 3, Fraction(2, 3), Fraction(-1, 3)]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
           st.lists(st.sampled_from(Q_VALUES), min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2),
           st.sampled_from(["identity", "canonical", "solve-top", "explicit", "tied"]),
           st.lists(st.sampled_from(Q_VALUES), min_size=n, max_size=n),
           st.lists(st.integers(-1, 2), min_size=n * n, max_size=n * n))),
       st.integers(1, 4), st.integers(0, 3))
def test_random_q_agreement(case, bound, n_max):
    # an independent q per pair, under every kind of twist: explicit p either
    # drawn at random, which leaves few admissible multidegrees, or tied to q
    # as p_i = prod_k q_ki^e_ik; solve-top takes alpha from the same draws
    q, twist, p, exponents = case
    n = len(p)
    spec = AlgebraSpec.numeric(n, dict(zip(all_pairs(n), map(Fraction, q))))
    rows = [exponents[n * i:n * i + n] for i in range(n)]
    sigma = {"identity": lambda: ScalingAutomorphism.identity(n),
             "canonical": lambda: canonical_automorphism(spec),
             "solve-top": lambda: automorphism_for_top_class(
                 spec, tuple(e + 1 for e in rows[0])),
             "explicit": lambda: ScalingAutomorphism.from_rationals(p),
             "tied": lambda: ScalingAutomorphism(tuple(
                 scalar_prod(spec.q_power(k, i, e) for k, e in enumerate(row, start=1))
                 for i, row in enumerate(rows, start=1)))}[twist]()
    report = compare_with_koszul(spec, sigma, n_max, bound)
    assert report.agreement, report.mismatches()
