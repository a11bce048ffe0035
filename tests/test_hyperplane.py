"""Normal ordering, scaling automorphisms, admissibility, genericity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algebras import apply_sigma, generic_check, one_parameter
from koszul_reference import ref
from qhyperplane.hyperplane import (NUMERIC, SYMBOLIC, AlgebraSpec,
                                    ScalingAutomorphism, automorphism_for_top_class,
                                    canonical_automorphism, commutation_factor,
                                    add_index, degree, is_admissible, is_generic,
                                    iter_multidegrees, monomial_product,
                                    sigma_commutes_at, unit)
from qhyperplane.qscalar import QMonomial, distinct_primes, symbol

Q2 = AlgebraSpec.symbolic(2)
Q3 = AlgebraSpec.symbolic(3)


def q(i, j, e=1):
    return symbol(i, j) ** e


def normal_order(spec, word):
    """Normal form of a product of generators given by index: the reference
    that commutation_factor and monomial_product are checked against.

    Letters are appended one at a time; appending x_i behind a prefix of
    multidegree gamma costs prod_{k>i} q_ik^{-gamma(k)}.  The coefficient is
    a RefPolynomial, which multiplies rationals and monomials alike.
    """
    counts = [0] * spec.n
    coeff = ref(Fraction(1))
    for i in word:
        for k in range(i + 1, spec.n + 1):
            if counts[k - 1]:
                coeff = coeff * ref(spec.q_power(i, k, -counts[k - 1]))
        counts[i - 1] += 1
    return coeff, tuple(counts)


words = st.lists(st.integers(1, 3), max_size=7)
indices3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


# -- the q table ----------------------------------------------------------------

MALFORMED_TABLES = {
    "missing pair": {(1, 2): 2, (1, 3): 3},
    "pair beyond n": {(1, 2): 2, (1, 3): 3, (2, 3): 5, (3, 4): 7},
    "reversed key": {(2, 1): 2, (1, 3): 3, (2, 3): 5},
    "zero value": {(1, 2): 2, (1, 3): 0, (2, 3): 5},
}


@pytest.mark.parametrize("mode", [NUMERIC, SYMBOLIC])
@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_spec_rejects_a_malformed_q_table(case, mode):
    # a symbolic table holds the symbols, and the rational 0 in place of a zero
    q = {pair: Fraction(v) if mode == NUMERIC or not v else symbol(*sorted(pair))
         for pair, v in MALFORMED_TABLES[case].items()}
    with pytest.raises(ValueError):
        AlgebraSpec(3, mode, q)


MALFORMED_INPUT = {
    "no generator": lambda: AlgebraSpec(0, NUMERIC, {}),
    "unknown mode": lambda: AlgebraSpec(2, "generic", {(1, 2): Fraction(2)}),
    "zero q_ij": lambda: AlgebraSpec.numeric(2, {(1, 2): 0}),
    "zero p_i": lambda: ScalingAutomorphism((Fraction(2), Fraction(0))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUT))
def test_spec_and_twist_reject_malformed_input(case):
    with pytest.raises(ValueError):
        MALFORMED_INPUT[case]()


MIXED3 = AlgebraSpec.numeric(3, {(1, 2): Fraction(2), (1, 3): Fraction(-1, 3),
                                 (2, 3): Fraction(5)})


@given(st.sampled_from([Q3, MIXED3]), st.integers(1, 3), st.integers(1, 3),
       st.integers(-4, 4))
def test_q_power_orientation(spec, i, j, e):
    # q_ji = q_ij^{-1} and q_ii = 1, read off the one table of q_ij, i < j
    assert spec.q_power(j, i, e) == spec.q_power(i, j, -e)
    assert spec.q_power(i, i, e) == 1
    if spec.mode == NUMERIC:
        assert type(spec.q_power(i, j, e)) is Fraction


# -- commutation factor --------------------------------------------------------

def test_commutation_factor_empty_word():
    for i in (1, 2, 3):
        assert commutation_factor(Q3, (0, 0, 0), i) == 1


def test_commutation_factor_quantum_plane():
    # y * x = q^{-1} x * y, so moving x through y costs q_12^{-1}
    assert commutation_factor(Q2, (0, 1), 1) == q(1, 2, -1)


def test_commutation_factor_self_commutes():
    for i in (1, 2, 3):
        assert commutation_factor(Q3, unit(3, i), i) == 1


def test_commutation_factor_index_range():
    with pytest.raises(IndexError):
        commutation_factor(Q2, (1, 0), 3)


# -- normal ordering -----------------------------------------------------------

def test_normal_order_single_swap():
    coeff, alpha = normal_order(Q2, (2, 1))
    assert coeff == ref(q(1, 2, -1))
    assert alpha == (1, 1)


def test_normal_order_sorted_word():
    coeff, alpha = normal_order(Q3, (1, 1, 2, 3, 3))
    assert coeff == 1
    assert alpha == (2, 1, 2)


def test_normal_order_reversed_triple():
    coeff, alpha = normal_order(Q3, (3, 2, 1))
    assert coeff == ref(q(1, 2, -1) * q(1, 3, -1) * q(2, 3, -1))
    assert alpha == (1, 1, 1)


@given(words, words)
def test_normal_order_is_multiplicative(u, v):
    cu, du = normal_order(Q3, u)
    cv, dv = normal_order(Q3, v)
    interleave, total = monomial_product(Q3, du, dv)
    cc, dd = normal_order(Q3, list(u) + list(v))
    assert dd == total
    assert cc == cu * cv * ref(interleave)


@given(indices3, st.integers(1, 3))
def test_commutation_factor_matches_normal_order(gamma, i):
    word = [k + 1 for k, g in enumerate(gamma) for _ in range(g)]
    c1, d1 = normal_order(Q3, word + [i])
    c2, d2 = normal_order(Q3, [i] + word)
    assert d1 == d2
    assert c1 == ref(commutation_factor(Q3, gamma, i)) * c2


# -- scaling automorphisms -------------------------------------------------------

def test_apply_sigma_trivial_cases():
    sigma = canonical_automorphism(Q2)
    assert apply_sigma(sigma, (0, 0)) == 1
    ident = ScalingAutomorphism.identity(2)
    assert apply_sigma(ident, (5, 7)) == 1


def test_apply_sigma_quantum_plane_top_degree():
    # p_1 p_2 = q_21 q_12 = 1
    sigma = canonical_automorphism(Q2)
    assert apply_sigma(sigma, (1, 1)) == 1


@given(indices3, indices3)
def test_apply_sigma_is_a_character(a, b):
    sigma = canonical_automorphism(Q3)
    assert ref(apply_sigma(sigma, add_index(a, b))) == (ref(apply_sigma(sigma, a))
                                                       * ref(apply_sigma(sigma, b)))


@given(indices3, indices3)
def test_sigma_is_an_algebra_automorphism(a, b):
    # sigma(m1 m2) and sigma(m1) sigma(m2) as coefficient * monomial
    sigma = canonical_automorphism(Q3)
    coeff, total = monomial_product(Q3, a, b)
    lhs = ref(apply_sigma(sigma, total)) * ref(coeff)
    rhs = ref(apply_sigma(sigma, a)) * ref(apply_sigma(sigma, b)) * ref(coeff)
    assert lhs == rhs


def test_canonical_automorphism_quantum_plane():
    sigma = canonical_automorphism(Q2)
    assert sigma.p == (q(1, 2, -1), q(1, 2, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_canonical_automorphism_one_parameter(n):
    base = Fraction(3)
    spec = one_parameter(n, base)
    sigma = canonical_automorphism(spec)
    for i in range(1, n + 1):
        assert sigma.p[i - 1] == base ** (n - 2 * i + 1)
        assert type(sigma.p[i - 1]) is Fraction


def test_canonical_automorphism_single_generator():
    sigma = canonical_automorphism(AlgebraSpec.symbolic(1))
    assert sigma.p == (Fraction(1),)


def test_canonical_fixes_admissible_multidegrees():
    for spec in (Q2, Q3, one_parameter(3, 5)):
        sigma = canonical_automorphism(spec)
        for gamma in iter_multidegrees(spec.n, 5):
            if is_admissible(spec, sigma, gamma):
                assert apply_sigma(sigma, gamma) == 1


def test_top_class_automorphism_quantum_plane():
    sigma = automorphism_for_top_class(Q2, (1, 0))
    assert sigma.p == (q(1, 2, -1), q(1, 2, 2))


def test_top_class_automorphism_single_generator():
    assert automorphism_for_top_class(AlgebraSpec.symbolic(1), (4,)).p == (Fraction(1),)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(AlgebraSpec.symbolic(n)), *[st.tuples(*[st.integers(0, 3)] * n)] * 3,
    st.integers(1, n))))
def test_symbolic_scalars_are_bare_monomials(case):
    # every symbolic scalar is q^m with no coefficient: a QMonomial, or the
    # empty product Fraction(1); a coefficient or a rational factor would
    # have no slot to go in, and a mixed product raises TypeError
    spec, a, b, alpha, i = case
    values = [commutation_factor(spec, a, i), monomial_product(spec, a, b)[0],
              *automorphism_for_top_class(spec, alpha).p]
    for value in values:
        assert type(value) is QMonomial or (type(value) is Fraction and value == 1)


@pytest.mark.parametrize("alpha", [(0, 0), (1, 0), (2, 3)])
def test_top_class_automorphism_makes_top_admissible(alpha):
    sigma = automorphism_for_top_class(Q2, alpha)
    assert is_admissible(Q2, sigma, add_index(alpha, (1, 1)))


# -- admissibility ----------------------------------------------------------------

def test_sigma_commutes_at_zero_iff_p_is_one():
    sigma = canonical_automorphism(Q2)
    assert not sigma_commutes_at(Q2, sigma, (0, 0), 1)
    ident = ScalingAutomorphism.identity(2)
    assert sigma_commutes_at(Q2, ident, (0, 0), 1)


def test_sigma_commutes_quantum_plane_cases():
    sigma = canonical_automorphism(Q2)
    assert sigma_commutes_at(Q2, sigma, (1, 1), 1)
    assert not sigma_commutes_at(Q2, sigma, (1, 0), 1)


def test_admissible_quantum_plane():
    sigma = canonical_automorphism(Q2)
    assert is_admissible(Q2, sigma, (0, 0))
    assert is_admissible(Q2, sigma, (1, 1))
    assert not is_admissible(Q2, sigma, (1, 0))


def test_admissible_identity_units():
    ident = ScalingAutomorphism.identity(3)
    for j in (1, 2, 3):
        assert is_admissible(Q3, ident, unit(3, j))


def test_zero_admissible_for_any_sigma():
    sigma = ScalingAutomorphism.from_rationals([2, 3])
    assert is_admissible(Q2, sigma, (0, 0))


# -- genericity --------------------------------------------------------------------

def test_generic_symbolic_structurally(tmp_path):
    assert is_generic(Q3, 6) is None
    report = generic_check(Q3, 6, tmp_path)
    assert report["generic"] and report["structural"] and report["witness"] is None


def test_generic_distinct_primes(tmp_path):
    spec = AlgebraSpec.numeric(3, distinct_primes(3))
    assert is_generic(spec, 6) is None
    report = generic_check(spec, 6, tmp_path)
    assert report["generic"] and report["witness"] is None


def test_not_generic_finds_witness(tmp_path):
    spec = AlgebraSpec.numeric(3, {(1, 2): Fraction(2), (1, 3): Fraction(1, 2),
                                   (2, 3): Fraction(1)})
    assert is_generic(spec, 4) == (0, 1, 1)
    report = generic_check(spec, 4, tmp_path)
    assert not report["generic"]
    assert report["witness"] == [0, 1, 1]

    spec2 = AlgebraSpec.numeric(3, {(1, 2): Fraction(2), (1, 3): Fraction(1, 2),
                                    (2, 3): Fraction(2)})
    assert is_generic(spec2, 4) == (1, 1, 1)
    report2 = generic_check(spec2, 4, tmp_path)
    assert not report2["generic"]
    assert report2["witness"] == [1, 1, 1]


def test_one_parameter_algebra_is_generic(tmp_path):
    assert is_generic(one_parameter(4, 3), 6) is None
    assert generic_check(one_parameter(4, 3), 6, tmp_path)["generic"]


def test_generic_bound_validation():
    with pytest.raises(ValueError):
        is_generic(Q2, 1)
