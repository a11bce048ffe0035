"""The reduced complex: differential and homotopy weights, d^2 = 0, and the
contraction identity dh + hd = D(gamma) id for the homotopy scaled by the
defect product D(gamma), zero exactly on the admissible multidegrees."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qhyperplane.hyperplane import (AlgebraSpec, ScalingAutomorphism, add_index,
                                    apply_sigma, automorphism_for_top_class,
                                    canonical_automorphism, degree, is_admissible,
                                    specialize_automorphism, unit)
from qhyperplane.koszul import (ReducedComplex, check_d_squared,
                                check_homotopy_identity)
from qhyperplane.qscalar import QPolynomial, distinct_primes, specialize, symbol

Q2 = AlgebraSpec.symbolic(2)
CANONICAL2 = ReducedComplex(Q2, canonical_automorphism(Q2))
# p_1 = q_21 = q_12^{-1} for the canonical twist of the quantum plane
P1 = symbol(1, 2) ** -1


# -- differential coefficient ----------------------------------------------------

def test_differential_coefficient_vanishes_on_admissible_top():
    # (1, 1) is admissible for the canonical twist of the quantum plane
    assert not CANONICAL2.differential_coefficient((0, 0), (1, 1), 1)
    assert not CANONICAL2.differential_coefficient((0, 0), (1, 1), 2)


def test_differential_coefficient_single_commuting_generator():
    spec = AlgebraSpec.symbolic(1)
    complex_ = ReducedComplex(spec, ScalingAutomorphism.identity(1))
    for alpha in ((0,), (3,)):
        assert not complex_.differential_coefficient(alpha, (1,), 1)


def test_differential_coefficient_for_one_exterior_slot():
    # 1 - p_1 = 1 - q^{-1} on the quantum plane
    value = CANONICAL2.differential_coefficient((0, 0), (1, 0), 1)
    expected = 1 - P1
    assert isinstance(expected, QPolynomial)
    assert value == expected
    assert value


def test_differential_coefficient_zero_iff_commutation_holds():
    spec = Q2
    sigma = canonical_automorphism(spec)
    complex_ = ReducedComplex(spec, sigma)
    from qhyperplane.hyperplane import sigma_commutes_at
    for alpha, beta in complex_.basis_elements(4):
        gamma = add_index(alpha, beta)
        for i in (1, 2):
            weight = complex_.differential_coefficient(alpha, beta, i)
            assert (not weight) == sigma_commutes_at(spec, sigma, gamma, i)


def reference_differential_coefficient(spec, sigma, alpha, beta, i):
    """The weight spelled out: sign * (q_si^beta(s) (s < i) * q_ir^-alpha(r)
    (r > i) - p_i * q_is^beta(s) (s > i) * q_ri^-alpha(r) (r < i))."""
    first = Fraction(1)
    for s in range(1, i):
        if beta[s - 1]:
            first = first * spec.q_power(s, i, beta[s - 1])
    for r in range(i + 1, spec.n + 1):
        if alpha[r - 1]:
            first = first * spec.q_power(i, r, -alpha[r - 1])
    second = sigma.p[i - 1]
    for s in range(i + 1, spec.n + 1):
        if beta[s - 1]:
            second = second * spec.q_power(i, s, beta[s - 1])
    for r in range(1, i):
        if alpha[r - 1]:
            second = second * spec.q_power(r, i, -alpha[r - 1])
    if sum(beta[: i - 1]) % 2:
        first, second = -first, -second
    return first - second


@st.composite
def twisted_algebras(draw):
    """Symbolic N <= 3 under the canonical, identity, solve-top (1, 0, 2)
    and explicit (2/3, 5, -1/2) twists."""
    n = draw(st.integers(1, 3))
    spec = AlgebraSpec.symbolic(n)
    sigma = draw(st.sampled_from([
        canonical_automorphism(spec), ScalingAutomorphism.identity(n),
        automorphism_for_top_class(spec, (1, 0, 2)[:n]),
        ScalingAutomorphism.from_rationals([Fraction(2, 3), 5, Fraction(-1, 2)][:n])]))
    return spec, sigma


@st.composite
def weight_cases(draw):
    spec, sigma = draw(twisted_algebras())
    n = spec.n
    alpha = tuple(draw(st.integers(0, 3)) for _ in range(n))
    beta = tuple(draw(st.integers(0, 1)) for _ in range(n))
    return spec, sigma, alpha, beta, draw(st.integers(1, n))


@settings(max_examples=150, deadline=None)
@given(weight_cases())
def test_differential_coefficient_factors_the_explicit_weight(case):
    spec, sigma, alpha, beta, i = case
    value = ReducedComplex(spec, sigma).differential_coefficient(alpha, beta, i)
    assert value == reference_differential_coefficient(spec, sigma, alpha, beta, i)


def test_differential_coefficient_index_range():
    with pytest.raises(IndexError):
        CANONICAL2.differential_coefficient((0, 0), (1, 0), 3)


# -- differential ------------------------------------------------------------------

def test_differential_kills_top_class():
    assert CANONICAL2.differential({((0, 0), (1, 1)): 1}) == {}


def test_differential_vanishes_on_admissible_multidegrees():
    for alpha, beta in CANONICAL2.basis_elements(5):
        if is_admissible(Q2, CANONICAL2.sigma, add_index(alpha, beta)):
            assert CANONICAL2.differential({(alpha, beta): 1}) == {}


def test_differential_single_term():
    out = CANONICAL2.differential({((0, 0), (1, 0)): 1})
    expected_coeff = 1 - P1
    assert set(out) == {((1, 0), (0, 0))}
    assert out[((1, 0), (0, 0))] == expected_coeff


def test_differential_lowers_degree_and_preserves_multidegree():
    for alpha, beta in CANONICAL2.basis_elements(5):
        out = CANONICAL2.differential({(alpha, beta): 1})
        for a2, b2 in out:
            assert sum(b2) == sum(beta) - 1
            assert add_index(a2, b2) == add_index(alpha, beta)


# -- homotopy weights -------------------------------------------------------------------

def homotopy_weight(complex_, alpha, beta, i):
    """The weight of moving x_i of x^alpha back into slot i: the coefficient of
    x^{alpha-e_i} (x) x^{beta+e_i} in the scaled homotopy of x^alpha (x) x^beta,
    zero when that target is no basis element."""
    e = unit(len(alpha), i)
    target = (tuple(a - b for a, b in zip(alpha, e)), add_index(beta, e))
    return complex_.homotopy({(alpha, beta): Fraction(1)}).get(target, 0)


def test_homotopy_weight_zero_cases():
    # admissible multidegree
    assert not homotopy_weight(CANONICAL2, (1, 1), (0, 0), 1)
    # occupied exterior slot
    assert not homotopy_weight(CANONICAL2, (1, 0), (1, 0), 1)
    # no symmetric letter to move
    assert not homotopy_weight(CANONICAL2, (0, 1), (0, 0), 1)


def test_homotopy_weight_inverts_differential_weight():
    # one failing index, so D = delta_1 and the round trip is D itself
    w = homotopy_weight(CANONICAL2, (1, 0), (0, 0), 1)
    back = CANONICAL2.differential_coefficient((0, 0), (1, 0), 1)
    assert w * back == CANONICAL2.defect_product((1, 0))
    assert CANONICAL2.failing_indices((1, 0)) == (1,)


def test_homotopy_weight_skips_commuting_positions():
    # gamma = (1, 2): generator 2 sigma-commutes, so slot 2 contributes nothing
    # (the unscaled weight there would divide by zero)
    assert not homotopy_weight(CANONICAL2, (1, 2), (0, 0), 2)
    assert homotopy_weight(CANONICAL2, (1, 2), (0, 0), 1)
    assert set(CANONICAL2.homotopy({((1, 2), (0, 0)): 1})) == {((0, 2), (1, 0))}


Q3 = AlgebraSpec.symbolic(3)
PRIMES3 = AlgebraSpec.numeric(3, distinct_primes(3))
SYMBOLIC_TWISTS3 = (canonical_automorphism(Q3), ScalingAutomorphism.identity(3),
                    automorphism_for_top_class(Q3, (1, 0, 2)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SYMBOLIC_TWISTS3), st.tuples(*[st.integers(0, 3)] * 3),
       st.tuples(*[st.integers(0, 1)] * 3), st.integers(1, 3))
def test_symbolic_coefficients_specialize_to_numeric(sigma, alpha, beta, i):
    # distinct primes are generic, so the two scalar types must agree
    symbolic = ReducedComplex(Q3, sigma)
    numeric = ReducedComplex(PRIMES3, specialize_automorphism(sigma, PRIMES3.q))
    expected = numeric.differential_coefficient(alpha, beta, i)
    assert type(expected) is Fraction
    value = symbolic.differential_coefficient(alpha, beta, i)
    assert specialize(value, PRIMES3.q) == expected
    element = {(alpha, beta): Fraction(1)}
    expected = numeric.homotopy(element)
    assert all(type(c) is Fraction for c in expected.values())
    value = symbolic.homotopy(element)
    assert {key: specialize(c, PRIMES3.q) for key, c in value.items()} == expected
    gamma = add_index(alpha, beta)
    assert (specialize(symbolic.defect_product(gamma), PRIMES3.q)
            == numeric.defect_product(gamma))


# -- homotopy ---------------------------------------------------------------------------

def test_homotopy_vanishes_on_admissible():
    assert CANONICAL2.homotopy({((1, 1), (0, 0)): 1}) == {}


def test_homotopy_vanishes_without_symmetric_part():
    assert CANONICAL2.homotopy({((0, 0), (1, 0)): 1}) == {}
    assert CANONICAL2.homotopy({((0, 0), (1, 1)): 1}) == {}


def contraction(complex_, element):
    """(dh + hd) of one basis element, zero terms dropped."""
    one = {element: Fraction(1)}
    total = complex_.differential(complex_.homotopy(one))
    for key, c in complex_.homotopy(complex_.differential(one)).items():
        total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


def test_contraction_on_one_element():
    scale = CANONICAL2.defect_product((1, 0))
    assert scale == 1 - P1       # delta_1 = 1 - p_1
    assert contraction(CANONICAL2, ((1, 0), (0, 0))) == {((1, 0), (0, 0)): scale}


@settings(max_examples=20, deadline=None)
@given(twisted_algebras(), st.integers(0, 4))
def test_scaled_homotopy_contracts_every_basis_element(algebra, bound):
    # dh + hd = D(gamma) id, and D(gamma) vanishes exactly on the admissible
    # multidegrees, which is_admissible decides without the defect table
    spec, sigma = algebra
    complex_ = ReducedComplex(spec, sigma)
    for element in complex_.basis_elements(bound):
        gamma = add_index(*element)
        scale = complex_.defect_product(gamma)
        assert contraction(complex_, element) == ({element: scale} if scale else {})
        assert (not scale) == is_admissible(spec, sigma, gamma)


# -- exhaustive checks ---------------------------------------------------------------------

def test_d_squared_quantum_plane():
    report = check_d_squared(Q2, canonical_automorphism(Q2), 6)
    assert report.passed and report.checked > 0


def test_d_squared_one_parameter():
    spec = AlgebraSpec.one_parameter(3, 3)
    report = check_d_squared(spec, canonical_automorphism(spec), 5)
    assert report.passed


def test_d_squared_single_generator():
    spec = AlgebraSpec.symbolic(1)
    report = check_d_squared(spec, canonical_automorphism(spec), 6)
    assert report.passed


def test_homotopy_identity_quantum_plane():
    report = check_homotopy_identity(Q2, canonical_automorphism(Q2), 5)
    assert report.passed


def test_homotopy_identity_identity_twist():
    report = check_homotopy_identity(PRIMES3, ScalingAutomorphism.identity(3), 4)
    assert report.passed


def test_homotopy_identity_explicit_twist():
    report = check_homotopy_identity(Q2, ScalingAutomorphism.from_rationals([2, 3]), 4)
    assert report.passed


def test_checks_fail_on_tampered_coefficients(monkeypatch):
    differential = ReducedComplex.differential_coefficient
    homotopy = ReducedComplex.homotopy
    # double the weight of every move back into slot 1
    monkeypatch.setattr(ReducedComplex, "homotopy", lambda self, c: {
        key: 2 * w if key[1][0] else w for key, w in homotopy(self, c).items()})
    report = check_homotopy_identity(Q2, canonical_automorphism(Q2), 3)
    assert not report.passed and report.failures
    monkeypatch.setattr(ReducedComplex, "differential_coefficient",
                        lambda self, alpha, beta, i:
                        differential(self, alpha, beta, i) + (1 if i == 1 else 0))
    report = check_d_squared(Q2, canonical_automorphism(Q2), 3)
    assert not report.passed and report.failures


# -- equivariance -----------------------------------------------------------------------------

def sigma_scale(complex_: ReducedComplex, c):
    out = {}
    for (alpha, beta), coeff in c.items():
        scalar = apply_sigma(complex_.sigma, add_index(alpha, beta))
        out[(alpha, beta)] = coeff * scalar
    return out


elements2 = st.sampled_from(sorted(CANONICAL2.basis_elements(4)))
small_chains = st.dictionaries(elements2, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@settings(max_examples=50, deadline=None)
@given(small_chains)
def test_differential_and_homotopy_are_equivariant(terms):
    for op in (CANONICAL2.differential, CANONICAL2.homotopy):
        lhs = op(sigma_scale(CANONICAL2, terms))
        rhs = sigma_scale(CANONICAL2, op(terms))
        assert lhs == rhs
