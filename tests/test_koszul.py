"""The reduced complex: the moves del and the homotopy that moves only the
first failing slot i0 = min F(gamma), checked against the complex with the
defects delta_i(gamma) = 1 - p_i / c_i(gamma), which lives here alone: d^2 = 0
and dh + hd = delta_{i0}(gamma) id, zero exactly on the admissible
multidegrees, hold exactly where del^2 = 0 and del h + h del = D(gamma) id
do."""

import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algebras import apply_sigma, one_parameter
from koszul_reference import (add_term, constants, defect, differential, homotopy,
                              moved_slot, ref, sub_index, weight)
from qhyperplane.cli import EXIT_OK, main
from qhyperplane.hochschild import HochschildComplex
from qhyperplane.hyperplane import (AlgebraSpec, ScalingAutomorphism, add_index,
                                    automorphism_for_top_class,
                                    canonical_automorphism, commutation_factor,
                                    exterior_under, is_admissible, iter_multidegrees,
                                    monomial_product, sigma_commutes_at,
                                    specialize_automorphism, support, unit)
from qhyperplane import koszul
from qhyperplane.koszul import ReducedComplex, check_complex
from qhyperplane.qscalar import QMonomial, distinct_primes, packed, symbol
from qscalar_reference import RefPolynomial

Q2 = AlgebraSpec.symbolic(2)
CANONICAL2 = ReducedComplex(Q2, canonical_automorphism(Q2))
# p_1 = q_21 = q_12^{-1} for the canonical twist of the quantum plane
P1 = symbol(1, 2) ** -1


# -- the per-element reference ---------------------------------------------------
# The complex computed one basis element and one weight at a time, which the
# per-multidegree blocks must reproduce up to their documented constants.

def basis_elements(complex_, bound):
    """All (alpha, beta) with |alpha+beta| <= bound, multidegree-major."""
    for gamma in iter_multidegrees(complex_.spec.n, bound):
        for beta in exterior_under(gamma):
            yield (sub_index(gamma, beta), beta)


def signed_factor(complex_, alpha, beta, i, e=1):
    """s^e for the signed factor s = (-1)^{|beta below i|} c_i(u), u = beta
    below i and alpha above it."""
    s = ref(commutation_factor(complex_.spec, beta[:i - 1] + alpha[i - 1:], i)) ** e
    return -s if sum(beta[:i - 1]) % 2 else s


def differential_coefficient(complex_, alpha, beta, i):
    """Weight of the move of exterior slot i into the symmetric part:
    sign * c_i(u) * delta_i(alpha+beta)."""
    return signed_factor(complex_, alpha, beta, i) * defect(complex_, add_index(alpha, beta), i)


def failing_indices(complex_, gamma):
    """Support positions where the sigma-commutation condition fails."""
    return tuple(i for i in support(gamma) if defect(complex_, gamma, i))


def first_defect(complex_, gamma):
    """delta_{i0}(gamma) for the first failing slot i0, zero when no slot
    fails."""
    failing = failing_indices(complex_, gamma)
    return defect(complex_, gamma, failing[0]) if failing else RefPolynomial.term(0)


def reference_differential(complex_, c):
    out = {}
    for (alpha, beta), coeff in c.items():
        for i in range(1, complex_.spec.n + 1):
            w = beta[i - 1] and differential_coefficient(complex_, alpha, beta, i)
            if w:
                e = unit(complex_.spec.n, i)
                add_term(out, (add_index(alpha, e), sub_index(beta, e)), w * coeff)
    return out


def reference_homotopy(complex_, c):
    out = {}
    for (alpha, beta), coeff in c.items():
        failing = failing_indices(complex_, add_index(alpha, beta))
        if not failing or beta[failing[0] - 1]:
            continue
        i = failing[0]
        w = signed_factor(complex_, alpha, beta, i, -1)
        e = unit(complex_.spec.n, i)
        add_term(out, (sub_index(alpha, e), add_index(beta, e)), w * coeff)
    return out


def reference_check_failures(complex_, bound):
    """The failures of d^2 = 0 and of dh + hd = delta_{i0}(gamma) id,
    element by element, in the strings of the checks."""
    d_squared, homotopy = [], []
    for element in basis_elements(complex_, bound):
        one = {element: Fraction(1)}
        if reference_differential(complex_, reference_differential(complex_, one)):
            d_squared.append(f"d(d{element}) != 0")
        total = reference_differential(complex_, reference_homotopy(complex_, one))
        for key, c in reference_homotopy(complex_, reference_differential(complex_, one)).items():
            add_term(total, key, c)
        add_term(total, element, -first_defect(complex_, add_index(*element)))
        if total:
            homotopy.append(f"(dh+hd){element} != D*id")
    return tuple(d_squared), tuple(homotopy)


# -- differential coefficient ----------------------------------------------------

def test_differential_coefficient_vanishes_on_admissible_top():
    # (1, 1) is admissible for the canonical twist of the quantum plane
    assert not differential_coefficient(CANONICAL2, (0, 0), (1, 1), 1)
    assert not differential_coefficient(CANONICAL2, (0, 0), (1, 1), 2)


def test_differential_coefficient_single_commuting_generator():
    spec = AlgebraSpec.symbolic(1)
    complex_ = ReducedComplex(spec, ScalingAutomorphism.identity(1))
    for alpha in ((0,), (3,)):
        assert not differential_coefficient(complex_, alpha, (1,), 1)


def test_differential_coefficient_for_one_exterior_slot():
    # 1 - p_1 = 1 - q^{-1} on the quantum plane
    value = differential_coefficient(CANONICAL2, (0, 0), (1, 0), 1)
    assert value == 1 - ref(P1)
    assert value


def test_differential_coefficient_zero_iff_commutation_holds():
    spec = Q2
    sigma = canonical_automorphism(spec)
    complex_ = ReducedComplex(spec, sigma)
    for alpha, beta in basis_elements(complex_, 4):
        gamma = add_index(alpha, beta)
        for i in (1, 2):
            weight = differential_coefficient(complex_, alpha, beta, i)
            assert (not weight) == sigma_commutes_at(spec, sigma, gamma, i)


def reference_differential_coefficient(spec, sigma, alpha, beta, i):
    """The weight spelled out: sign * (q_si^beta(s) (s < i) * q_ir^-alpha(r)
    (r > i) - p_i * q_is^beta(s) (s > i) * q_ri^-alpha(r) (r < i)), whose
    products of a rational p_i and monomials are RefPolynomials."""
    first = ref(Fraction(1))
    for s in range(1, i):
        if beta[s - 1]:
            first = first * ref(spec.q_power(s, i, beta[s - 1]))
    for r in range(i + 1, spec.n + 1):
        if alpha[r - 1]:
            first = first * ref(spec.q_power(i, r, -alpha[r - 1]))
    second = ref(sigma.p[i - 1])
    for s in range(i + 1, spec.n + 1):
        if beta[s - 1]:
            second = second * ref(spec.q_power(i, s, beta[s - 1]))
    for r in range(1, i):
        if alpha[r - 1]:
            second = second * ref(spec.q_power(r, i, -alpha[r - 1]))
    difference = first - second
    return -difference if sum(beta[: i - 1]) % 2 else difference


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
    value = differential_coefficient(ReducedComplex(spec, sigma), alpha, beta, i)
    assert value == reference_differential_coefficient(spec, sigma, alpha, beta, i)


def test_differential_coefficient_index_range():
    with pytest.raises(IndexError):
        differential_coefficient(CANONICAL2, (0, 0), (1, 0), 3)


# -- differential ------------------------------------------------------------------

def test_differential_kills_top_class():
    assert differential(CANONICAL2, {((0, 0), (1, 1)): 1}) == {}


def test_differential_vanishes_on_admissible_multidegrees():
    for alpha, beta in basis_elements(CANONICAL2, 5):
        if is_admissible(Q2, CANONICAL2.sigma, add_index(alpha, beta)):
            assert differential(CANONICAL2, {(alpha, beta): 1}) == {}


def test_differential_single_term():
    out = differential(CANONICAL2, {((0, 0), (1, 0)): 1})
    expected_coeff = 1 - ref(P1)
    assert set(out) == {((1, 0), (0, 0))}
    assert out[((1, 0), (0, 0))] == expected_coeff


def test_differential_lowers_degree_and_preserves_multidegree():
    for alpha, beta in basis_elements(CANONICAL2, 5):
        out = differential(CANONICAL2, {(alpha, beta): 1})
        for a2, b2 in out:
            assert sum(b2) == sum(beta) - 1
            assert add_index(a2, b2) == add_index(alpha, beta)


# -- homotopy weights -------------------------------------------------------------------

def homotopy_weight(complex_, alpha, beta, i):
    """The weight of moving x_i of x^alpha back into slot i: the coefficient of
    x^{alpha-e_i} (x) x^{beta+e_i} in the homotopy of x^alpha (x) x^beta,
    zero when that target is no basis element."""
    e = unit(len(alpha), i)
    target = (tuple(a - b for a, b in zip(alpha, e)), add_index(beta, e))
    return homotopy(complex_, {(alpha, beta): Fraction(1)}).get(target, 0)


def test_homotopy_weight_zero_cases():
    # admissible multidegree
    assert not homotopy_weight(CANONICAL2, (1, 1), (0, 0), 1)
    # occupied exterior slot
    assert not homotopy_weight(CANONICAL2, (1, 0), (1, 0), 1)
    # no symmetric letter to move
    assert not homotopy_weight(CANONICAL2, (0, 1), (0, 0), 1)


def test_homotopy_weight_inverts_differential_weight():
    # one failing index, so the round trip is delta_1 itself, and the block
    # scale D is 1
    w = homotopy_weight(CANONICAL2, (1, 0), (0, 0), 1)
    back = differential_coefficient(CANONICAL2, (0, 0), (1, 0), 1)
    assert w * back == first_defect(CANONICAL2, (1, 0)) == defect(CANONICAL2, (1, 0), 1)
    assert failing_indices(CANONICAL2, (1, 0)) == (1,)
    assert CANONICAL2.block((1, 0)).scale == (1, 0)


def test_homotopy_weight_skips_commuting_positions():
    # gamma = (1, 2): generator 2 sigma-commutes, so slot 2 contributes nothing
    # (the unscaled weight there would divide by zero)
    assert not homotopy_weight(CANONICAL2, (1, 2), (0, 0), 2)
    assert homotopy_weight(CANONICAL2, (1, 2), (0, 0), 1)
    assert set(homotopy(CANONICAL2, {((1, 2), (0, 0)): 1})) == {((0, 2), (1, 0))}


Q3 = AlgebraSpec.symbolic(3)
PRIMES3 = AlgebraSpec.numeric(3, distinct_primes(3))
SYMBOLIC_TWISTS3 = (canonical_automorphism(Q3), ScalingAutomorphism.identity(3),
                    automorphism_for_top_class(Q3, (1, 0, 2)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SYMBOLIC_TWISTS3), st.tuples(*[st.integers(0, 3)] * 3),
       st.tuples(*[st.integers(0, 1)] * 3), st.integers(1, 3))
def test_symbolic_coefficients_specialize_to_numeric(sigma, alpha, beta, i):
    # distinct primes are generic, so the two scalar types must agree; the
    # numeric blocks hold ints, and its reference has no symbol in it.  At
    # integral q the block constants specialize too, so the symbolic blocks
    # specialize to the numeric ones weight by weight
    symbolic = ReducedComplex(Q3, sigma)
    numeric = ReducedComplex(PRIMES3, specialize_automorphism(sigma, PRIMES3.q))
    expected = differential_coefficient(numeric, alpha, beta, i).specialize({})
    value = differential_coefficient(symbolic, alpha, beta, i)
    assert value.specialize(PRIMES3.q) == expected
    element = {(alpha, beta): Fraction(1)}
    expected = {key: c.specialize({}) for key, c in homotopy(numeric, element).items()}
    value = homotopy(symbolic, element)
    assert {key: c.specialize(PRIMES3.q) for key, c in value.items()} == expected
    gamma = add_index(alpha, beta)
    block, symbolic_block = numeric.block(gamma), symbolic.block(gamma)
    assert all(type(c) is int and m == 0 for maps in (block.d, block.h)
               for moves in maps.values() for _, c, m in moves)
    assert type(block.scale[0]) is int and block.scale[1] == 0
    assert (first_defect(symbolic, gamma).specialize(PRIMES3.q)
            == first_defect(numeric, gamma).specialize({}))
    for maps, symbolic_maps in ((block.d, symbolic_block.d), (block.h, symbolic_block.h)):
        assert {beta: [(target, c) for target, c, _ in moves] for beta, moves in maps.items()} == {
            beta: [(target, weight(c, m).specialize(PRIMES3.q)) for target, c, m in moves]
            for beta, moves in symbolic_maps.items()}
    assert weight(*symbolic_block.scale).specialize(PRIMES3.q) == block.scale[0]


# -- homotopy ---------------------------------------------------------------------------

def test_homotopy_vanishes_on_admissible():
    assert homotopy(CANONICAL2, {((1, 1), (0, 0)): 1}) == {}


def test_homotopy_vanishes_without_symmetric_part():
    assert homotopy(CANONICAL2, {((0, 0), (1, 0)): 1}) == {}
    assert homotopy(CANONICAL2, {((0, 0), (1, 1)): 1}) == {}


def contraction(complex_, element):
    """(dh + hd) of one basis element, zero terms dropped."""
    one = {element: Fraction(1)}
    total = differential(complex_, homotopy(complex_, one))
    for key, c in homotopy(complex_, differential(complex_, one)).items():
        add_term(total, key, c)
    return total


def test_contraction_on_one_element():
    scale = first_defect(CANONICAL2, (1, 0))
    assert scale == 1 - ref(P1)       # delta_1 = 1 - p_1
    assert contraction(CANONICAL2, ((1, 0), (0, 0))) == {((1, 0), (0, 0)): scale}


@settings(max_examples=20, deadline=None)
@given(twisted_algebras(), st.integers(0, 4))
def test_scaled_homotopy_contracts_every_basis_element(algebra, bound):
    # dh + hd = delta_{i0}(gamma) id, and delta_{i0}(gamma) vanishes exactly on
    # the admissible multidegrees, which is_admissible decides without a
    # defect; the block scale is D(gamma) = 1 elsewhere times the constants
    # lambda_{i0}(gamma) mu(gamma) of the slot i0 that h moves
    spec, sigma = algebra
    complex_ = ReducedComplex(spec, sigma)
    for element in basis_elements(complex_, bound):
        gamma = add_index(*element)
        scale = first_defect(complex_, gamma)
        failing = failing_indices(complex_, gamma)
        lam, mu = constants(complex_, gamma, failing[0]) if failing else (0, 0)
        assert weight(*complex_.block(gamma).scale) == lam * mu
        assert contraction(complex_, element) == ({element: scale} if scale else {})
        assert (not scale) == is_admissible(spec, sigma, gamma)


# -- exhaustive checks ---------------------------------------------------------------------

def test_d_squared_quantum_plane():
    report = check_complex(ReducedComplex(Q2, canonical_automorphism(Q2)), 6)[0]
    assert report.passed and report.checked > 0


def test_d_squared_one_parameter():
    spec = one_parameter(3, 3)
    report = check_complex(ReducedComplex(spec, canonical_automorphism(spec)), 5)[0]
    assert report.passed


def test_d_squared_single_generator():
    spec = AlgebraSpec.symbolic(1)
    report = check_complex(ReducedComplex(spec, canonical_automorphism(spec)), 6)[0]
    assert report.passed


def test_homotopy_identity_quantum_plane():
    report = check_complex(ReducedComplex(Q2, canonical_automorphism(Q2)), 5)[1]
    assert report.passed


def test_homotopy_identity_identity_twist():
    report = check_complex(ReducedComplex(PRIMES3, ScalingAutomorphism.identity(3)), 4)[1]
    assert report.passed


def test_homotopy_identity_explicit_twist():
    report = check_complex(ReducedComplex(Q2, ScalingAutomorphism.from_rationals([2, 3])), 4)[1]
    assert report.passed


def test_check_complex_keeps_no_block():
    # each block is built, checked both ways and dropped: after the walk the
    # complex holds its algebra and its twist alone, and the (a, b, m) of
    # each q_ik and p_i it reads them through
    complex_ = ReducedComplex(Q3, canonical_automorphism(Q3))
    check_complex(complex_, 4)
    assert set(vars(complex_)) == {"spec", "sigma", "_q", "_p"}


def tamper_blocks(monkeypatch, tamper):
    """Pass every block the complex builds through tamper."""
    build = ReducedComplex.block
    monkeypatch.setattr(ReducedComplex, "block",
                        lambda self, gamma: tamper(build(self, gamma)))


def test_checks_fail_on_tampered_coefficients(monkeypatch):
    with monkeypatch.context() as patch:
        # flip the sign of every move out of slot 1 where slot 2 is occupied:
        # a sign on all of them would anticommute as before
        tamper_blocks(patch, lambda block: block._replace(d={
            beta: [(target, -c if beta[0] and beta[1] and not target[0] else c, m)
                   for target, c, m in moves]
            for beta, moves in block.d.items()}))
        report = check_complex(ReducedComplex(Q3, canonical_automorphism(Q3)), 3)[0]
        assert not report.passed and report.failures
    with monkeypatch.context() as patch:
        # double the weight of every move back into slot 1
        tamper_blocks(patch, lambda block: block._replace(h={
            beta: [(target, 2 * c if target[0] and not beta[0] else c, m)
                   for target, c, m in moves]
            for beta, moves in block.h.items()}))
        report = check_complex(ReducedComplex(Q2, canonical_automorphism(Q2)), 3)[1]
        assert not report.passed and report.failures
    with monkeypatch.context() as patch:
        tamper_blocks(patch, lambda block: block._replace(
            scale=(2 * block.scale[0], block.scale[1])))
        report = check_complex(ReducedComplex(Q2, canonical_automorphism(Q2)), 3)[1]
        assert not report.passed and report.failures


MINUS_ONE3 = AlgebraSpec.numeric(3, {pair: Fraction(-1) for pair in Q3.q})
# q with denominators, so the blocks scale by their b_ik as well
RATIONAL3 = AlgebraSpec.numeric(3, {(1, 2): Fraction(2, 3), (1, 3): Fraction(-5, 7),
                                    (2, 3): Fraction(1, 2)})
TWISTS3 = (canonical_automorphism, lambda spec: ScalingAutomorphism.identity(3),
           lambda spec: ScalingAutomorphism.from_rationals([Fraction(2, 3), 5, Fraction(-1, 2)]))
REFERENCE_CASES = [ReducedComplex(spec, twist(spec))
                   for spec in (PRIMES3, MINUS_ONE3, RATIONAL3, Q3) for twist in TWISTS3]
# a factor 2, a sign or q_12 on the signed factor s of slot 2 only where slot
# 1 sits below it is no change of basis.  The reference multiplies s by it;
# the blocks multiply their del weights by it and their h weights, which
# carry s^{-1}, by a constant of the block over it, and their scale by that
# constant, which keeps every h weight an int.  The q_12 leaves the
# coefficients of d^2 cancelling on each target, but not their monomials
TAMPERS = (None, (lambda i, beta: 2 if i == 2 and beta[0] else 1, 2),
           (lambda i, beta: -1 if i == 2 and beta[0] else 1, 1),
           (lambda i, beta: symbol(1, 2) if i == 2 and beta[0] else 1, symbol(1, 2)))


def tampered_block(block, factor, whole):
    """The block with each del weight times t = factor(i, beta), for its slot
    i and its target beta, each h weight times whole / t, for its source beta,
    and the scale times whole."""
    wc, wm = packed(whole)
    d = {beta: [(target, c * tc, m + tm) for target, c, m in moves
                for tc, tm in [packed(factor(moved_slot(beta, target), target))]]
         for beta, moves in block.d.items()}
    h = {beta: [(target, c * wc // tc, m + wm - tm) for target, c, m in moves
                for tc, tm in [packed(factor(moved_slot(beta, target), beta))]]
         for beta, moves in block.h.items()}
    return block._replace(d=d, h=h, scale=(block.scale[0] * wc, block.scale[1] + wm))


def test_tampered_checks_report_the_reference_failures(monkeypatch):
    # numeric at distinct primes, at q = -1 and at rational q, and symbolic,
    # under the canonical, identity and explicit twists, as they are and
    # tampered: the checks on del fail exactly where the defect-weighted
    # identities do
    signed = signed_factor
    failed = set()
    for t, tamper in enumerate(TAMPERS):
        with monkeypatch.context() as patch:
            if tamper:
                factor, whole = tamper
                patch.setattr(sys.modules[__name__], "signed_factor",
                              lambda complex_, alpha, beta, i, e=1:
                              signed(complex_, alpha, beta, i, e) * ref(factor(i, beta)) ** e)
                tamper_blocks(patch, lambda block: tampered_block(block, factor, whole))
            for case in REFERENCE_CASES:
                complex_ = ReducedComplex(case.spec, case.sigma)
                reference = reference_check_failures(complex_, 4)
                for k, (report, failures) in enumerate(zip(check_complex(complex_, 4), reference)):
                    assert report.failures == failures
                    assert report.checked == len(list(basis_elements(complex_, 4)))
                    if failures:
                        failed.add((t, k))
    assert len(failed) == 2 * (len(TAMPERS) - 1)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(REFERENCE_CASES), st.data())
def test_block_chain_maps_equal_the_reference(complex_, data):
    # numeric at distinct primes, at q = -1 and at rational q, and symbolic,
    # under the canonical, identity and explicit twists: the block weights are
    # the reference weights times the constants of koszul_reference
    elements = list(basis_elements(complex_, 4))
    chain = data.draw(st.dictionaries(st.sampled_from(elements),
                                      st.integers(-3, 3).filter(bool), min_size=1, max_size=4))
    assert differential(complex_, chain) == reference_differential(complex_, chain)
    assert homotopy(complex_, chain) == reference_homotopy(complex_, chain)


def block_failing(block):
    """F(gamma) as the block holds it: the slots its moves del empty, and the
    one slot its homotopy fills."""
    failing = sorted({moved_slot(beta, target) for beta, moves in block.d.items()
                      for target, _, _ in moves})
    assert {moved_slot(beta, target) for beta, moves in block.h.items()
            for target, _, _ in moves} == set(failing[:1])
    return failing


TOP_SPECS = (AlgebraSpec.numeric(2, distinct_primes(2)), Q2)


@pytest.mark.parametrize("complex_", REFERENCE_CASES + [
    ReducedComplex(spec, automorphism_for_top_class(spec, (20000, 0))) for spec in TOP_SPECS])
def test_failing_slots_are_those_that_do_not_sigma_commute(complex_):
    # d^2 = 0 and the homotopy identity hold whatever F is, so F is pinned
    # to the membership predicate here: numeric at distinct primes, at q = -1
    # and at rational q, and symbolic, under the canonical, identity and
    # explicit twists, and the twist solved for the top class at alpha =
    # (20000, 0), whose p_2 = q_12^20001 the cross-multiplication reaches
    spec, sigma = complex_.spec, complex_.sigma
    gammas = list(iter_multidegrees(spec.n, 4))
    if spec.n == 2:
        gammas += [(20001, 1), (20000, 1), (20001, 0)]
    for gamma in gammas:
        expected = [i for i in support(gamma) if not sigma_commutes_at(spec, sigma, gamma, i)]
        assert block_failing(complex_.block(gamma)) == expected
    if spec.n == 2:
        assert block_failing(complex_.block((20001, 1))) == []


def test_rational_blocks_scale_by_their_denominators():
    # a block that left out its b_ik would still pass both checks, as the
    # factor prod_{k in beta} b_ik of a move is a change of basis, but it
    # would not be the reference times its constants
    complex_ = ReducedComplex(RATIONAL3, canonical_automorphism(RATIONAL3))
    for element in basis_elements(complex_, 3):
        one = {element: Fraction(1)}
        assert differential(complex_, one) == reference_differential(complex_, one)
        assert homotopy(complex_, one) == reference_homotopy(complex_, one)


# -- equivariance -----------------------------------------------------------------------------

def sigma_scale(complex_: ReducedComplex, c):
    out = {}
    for (alpha, beta), coeff in c.items():
        scalar = apply_sigma(complex_.sigma, add_index(alpha, beta))
        out[(alpha, beta)] = ref(coeff) * ref(scalar)
    return out


elements2 = st.sampled_from(sorted(basis_elements(CANONICAL2, 4)))
small_chains = st.dictionaries(elements2, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@settings(max_examples=50, deadline=None)
@given(small_chains)
def test_differential_and_homotopy_are_equivariant(terms):
    for op in (differential, homotopy):
        lhs = op(CANONICAL2, sigma_scale(CANONICAL2, terms))
        rhs = sigma_scale(CANONICAL2, op(CANONICAL2, terms))
        assert lhs == rhs


def test_symbolic_products_start_at_their_first_factor(capsys):
    # a QMonomial has no __rmul__, so a product started at Fraction(1) raises
    # TypeError at its first QMonomial factor.  The monomial calculus starts
    # at its first factor, the Koszul checks multiply no scalars at all, and
    # a symbolic verify runs to the end
    assert not hasattr(QMonomial, "__rmul__")
    with pytest.raises(TypeError):
        Fraction(1) * symbol(1, 2)
    spec = AlgebraSpec.symbolic(3)
    assert monomial_product(spec, (2, 1, 1), (1, 2, 1))[0] == (
        symbol(1, 2) ** -1 * symbol(1, 3) ** -1 * symbol(2, 3) ** -2)
    assert commutation_factor(spec, (2, 1, 1), 2) == symbol(1, 2) ** 2 * symbol(2, 3) ** -1
    assert main(["verify", "--n", "4", "--bound", "5", "--nmax", "0", "--symbolic"]) == EXIT_OK


def test_numeric_checks_run_in_ints(monkeypatch, capsys):
    # at distinct primes every block weight is an int with the monomial 0;
    # neither check adds, subtracts, multiplies or powers a Fraction, and
    # once the complexes are built, neither does building a block nor the
    # oracle's natural_dims
    arithmetic = {f.__code__ for f in (Fraction._add, Fraction._sub, Fraction._mul,
                                       Fraction.__pow__)}
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in arithmetic:
            seen[frame.f_code.co_name] += 1

    def profiled(name, method):
        def run(*args):
            seen[name] += 1
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                return method(*args)
            finally:
                sys.setprofile(previous)
        return run

    def spied(check):
        def run(block):
            assert all(type(c) is int and m == 0 for maps in (block.d, block.h)
                       for moves in maps.values() for _, c, m in moves)
            assert type(block.scale[0]) is int and block.scale[1] == 0
            return profiled("checks", check)(block)
        return run

    for check in (koszul.check_d_squared, koszul.check_homotopy_identity):
        monkeypatch.setattr(koszul, check.__name__, spied(check))
    monkeypatch.setattr(ReducedComplex, "block", profiled("blocks", ReducedComplex.block))
    monkeypatch.setattr(HochschildComplex, "natural_dims",
                        profiled("natural_dims", HochschildComplex.natural_dims))
    assert main(["verify", "--n", "4", "--bound", "5", "--nmax", "0",
                 "--auto-primes"]) == EXIT_OK
    cells = len(list(iter_multidegrees(4, 5)))
    assert seen == {"checks": 2 * cells, "blocks": cells, "natural_dims": cells}
