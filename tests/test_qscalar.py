"""Scalar arithmetic: group laws, specialization, exactness, the monomials
q^m, which are QMonomials and never meet a rational in a product, the edge
of the packed exponent fields, and agreement with the tuple-and-Fraction
reference."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qhyperplane.hyperplane import AlgebraSpec
from qhyperplane.qscalar import (QMonomial, all_pairs, distinct_primes, packed,
                                 specialize, symbol, term)
from koszul_reference import ref
from qscalar_reference import RefPolynomial, mono

PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def qm(exps=()):
    """The monomial prod q_ij^e over the ((i, j), e) given, built from
    symbols and powers."""
    out = symbol(1, 2) ** 0                   # a QMonomial even without a symbol
    for (i, j), e in dict(exps).items():
        out = out * symbol(i, j) ** e
    return out


exponent_maps = st.dictionaries(st.sampled_from(PAIRS), st.integers(-4, 4), max_size=4)
monomials = st.builds(qm, exponent_maps)
# the rationals a monomial never multiplies, zero included
rationals = st.integers(-4, 4) | st.fractions(min_value=-8, max_value=8)


def prime_assignment():
    return distinct_primes(4)


# -- spec examples ------------------------------------------------------------

def test_mul_inverse_pair_cancels():
    a = qm({(1, 2): 1})
    b = qm({(1, 2): -1})
    assert a * b == 1
    assert term(a * b) == (1, mono())


def test_mul_disjoint_monomials():
    a = qm({(1, 2): 1})
    b = qm({(1, 3): 2})
    assert a * b == qm({(1, 2): 1, (1, 3): 2})


def test_inverse_componentwise():
    assert qm({(1, 2): 1}) ** -1 == qm({(1, 2): -1})
    assert qm({(1, 2): 1, (2, 3): -2}) ** -1 == qm({(1, 2): -1, (2, 3): 2})
    assert qm() ** -1 == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fraction(0) ** -1
    # no monomial is zero, and none times 0 is a scalar that could be one
    with pytest.raises(TypeError):
        qm({(1, 2): 1}) * 0


def test_specialize_direct():
    nu = {(1, 2): Fraction(3)}
    assert specialize(qm({(1, 2): 2}), nu) == 9
    nu2 = {(1, 2): Fraction(2)}
    assert specialize(qm({(1, 2): -1}), nu2) == Fraction(1, 2)
    assert specialize(qm(), nu) == 1
    assert specialize(Fraction(3, 4), nu) == Fraction(3, 4)


def test_specialize_missing_pair_raises():
    nu = {(1, 2): Fraction(3)}
    with pytest.raises(KeyError):
        specialize(qm({(1, 3): 1}), nu)


def test_exponent_orientation():
    spec = AlgebraSpec.symbolic(3)
    e = spec.q_power(3, 1, 2)         # q_31^2 is q_13^{-2}
    assert term(e) == (1, mono({(1, 3): -2}.items()))
    assert spec.q_power(1, 3, -2) == e
    assert spec.q_power(2, 2, 5) == 1


def test_symbol_is_the_one_term_q_ij():
    assert symbol(1, 3) == qm({(1, 3): 1})
    assert symbol(1, 2) ** 0 == 1 and symbol(1, 2) ** 0 == Fraction(1)


def test_symbol_needs_a_pair_i_below_j():
    # each pair has its own exponent field; no other pair may alias one
    for i, j in ((3, 3), (2, 1), (0, 1), (-1, 4)):
        with pytest.raises(ValueError):
            symbol(i, j)


# -- group and homomorphism properties ---------------------------------------

@given(monomials, monomials, monomials)
def test_multiplication_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * qm() == a
    assert a * a ** -1 == 1
    assert a * b == b * a


@given(monomials, monomials)
def test_specialize_is_a_homomorphism(a, b):
    nu = prime_assignment()
    assert specialize(a * b, nu) == specialize(a, nu) * specialize(b, nu)


@given(monomials)
def test_is_one_iff_prime_specialization_is_one(a):
    # distinct primes are multiplicatively independent over the rationals, so
    # a monomial specializes to 1 only when it is trivial
    nu = prime_assignment()
    assert (a == 1) == (specialize(a, nu) == 1)


@given(monomials, st.integers(-3, 3))
def test_power_matches_repeated_product(a, n):
    expected = qm()
    step = a if n >= 0 else a ** -1
    for _ in range(abs(n)):
        expected = expected * step
    assert a ** n == expected


# -- what a monomial stores, and what it does not do ----------------------------

def test_terms_store_integers_as_ints():
    # a monomial stores its packed exponents, one int, and no coefficient,
    # whether a symbol, a power or a product built it
    assert QMonomial.__slots__ == ("m",)
    a = qm({(1, 2): 1, (2, 3): -2})
    for t in (symbol(1, 2), qm(), a ** -1, a ** 3, a * a ** -1, a * symbol(1, 3)):
        assert type(t.m) is int and not hasattr(t, "c")
    assert not hasattr(QMonomial, "__rmul__")


def test_a_term_has_no_division_and_no_sum():
    # no symbolic scalar is ever divided, and none is a sum
    a = qm({(1, 2): 1})
    with pytest.raises(TypeError):
        1 / a
    with pytest.raises(TypeError):
        a / 2
    with pytest.raises(TypeError):
        hash(a)
    for other in (a, 1, Fraction(1, 2), 0):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            other + a
        with pytest.raises(TypeError):
            a - other
        with pytest.raises(TypeError):
            other - a
    with pytest.raises(TypeError):
        a * 1.5


@given(monomials, monomials)
def test_fraction_equality_by_cross_multiplication(a, b):
    # monomials are canonical, so equality compares their exponents, and a
    # quotient is 1 exactly between equal monomials
    assert (a == b) == (term(a) == term(b)) == (a * b ** -1 == 1)


# -- monomials -------------------------------------------------------------------

@given(monomials, monomials)
def test_cancelling_product_equals_the_rational(a, b):
    # a * (b / a) cancels every q that a carries; b's own q survive
    assert a * (b * a ** -1) == b
    assert a * a ** -1 == 1
    assert a ** 0 == 1
    # a term that keeps a monomial equals no rational
    c, m = term(a)
    assert (a == c) == (m == mono())


def test_term_of_a_rational_and_of_a_term():
    assert term(Fraction(3, 4)) == (Fraction(3, 4), mono())
    assert term(qm({(1, 3): 1})) == (1, mono({(1, 3): 1}.items()))
    assert packed(Fraction(3, 4)) == (Fraction(3, 4), 0)
    assert packed(qm({(1, 3): 1})) == (1, symbol(1, 3).m)


@pytest.mark.parametrize("scalar, text", [
    (1, "q(1,2){}"), (-1, "-q(1,2){}"), (Fraction(1, 2), "1/2*q(1,2){}")])
@pytest.mark.parametrize("e, power", [(1, ""), (-1, "^-1"), (2, "^2")])
def test_term_string(scalar, text, e, power):
    # a monomial prints as its symbols; a scalar times it is a sum's term,
    # which only the reference builds, and prints the scalar first
    assert str(qm({(1, 2): e})) == "q(1,2)" + power
    assert str(ref(qm({(1, 2): e})) * scalar) == text.format(power)


def test_term_string_without_or_with_several_symbols():
    assert str(qm()) == "1"
    assert str(qm({(1, 3): 1})) == "q(1,3)"
    assert str(qm({(1, 2): 1, (2, 3): 2})) == "q(1,2)*q(2,3)^2"


@given(monomials, rationals)
def test_fraction_arithmetic_with_mixed_operands(a, r):
    # a monomial and a rational never multiply, either way round and zero
    # included: a mixed product raises, so none can happen unnoticed
    with pytest.raises(TypeError):
        a * r
    with pytest.raises(TypeError):
        r * a
    assert (a == r) == (a == 1 and r == 1)


def test_every_exported_name_resolves():
    import qhyperplane
    assert len(set(qhyperplane.__all__)) == len(qhyperplane.__all__)
    for name in qhyperplane.__all__:
        assert getattr(qhyperplane, name) is not None


# -- packed exponent fields ---------------------------------------------------

def test_exponents_at_the_edge_of_a_field_stay_apart():
    # a power may reach 2^32 - 1 in magnitude; a field holds up to 2^63 - 1,
    # and its neighbours do not see it
    top = (1 << 32) - 1
    q12, q13, q23 = symbol(1, 2), symbol(1, 3), symbol(2, 3)
    edge = q12 ** top * q13 ** -top
    assert term(edge) == (1, (((1, 2), top), ((1, 3), -top)))
    assert term(edge * q12 * q23 ** -1) == (1, (((1, 2), top + 1), ((1, 3), -top),
                                               ((2, 3), -1)))
    doubled = edge
    for _ in range(31):
        doubled = doubled * doubled
    assert term(doubled) == (1, (((1, 2), top << 31), ((1, 3), -top << 31)))
    assert specialize(edge * q12 ** -top * q13 ** top, {}) == 1
    assert term(edge ** -1) == (1, (((1, 2), -top), ((1, 3), top)))


@pytest.mark.parametrize("base, n", [
    (symbol(1, 2), 1 << 32), (symbol(1, 2), -(1 << 32)),
    (symbol(1, 2) ** (1 << 16), 1 << 16),
    (symbol(1, 3) * symbol(2, 4) ** -((1 << 31) + 1), 2),
    (symbol(7, 9) ** -3, 1 << 31)])
def test_power_refuses_an_exponent_of_two_to_the_32(base, n):
    with pytest.raises(OverflowError):
        base ** n


# -- agreement with the tuple-and-Fraction reference ----------------------------

PAIRS5 = all_pairs(5)
exponent_maps5 = st.dictionaries(st.sampled_from(PAIRS5), st.integers(-3, 3), max_size=3)


def both(e):
    """The monomial q^e as a QMonomial and as a RefPolynomial."""
    return qm(e), RefPolynomial.term(1, e.items())


def assert_agree(packed, ref):
    assert str(packed) == str(ref)
    for q in (distinct_primes(5), {pair: Fraction(-k - 1, 3) for k, pair in enumerate(PAIRS5)}):
        assert specialize(packed, q) == ref.specialize(q)
    assert term(packed) == ref.single()


@given(exponent_maps5, exponent_maps5, st.integers(-3, 3), rationals)
def test_packed_arithmetic_agrees_with_the_reference(a, b, n, r):
    (pa, ra), (pb, rb) = both(a), both(b)
    for packed, ref in ((pa, ra), (pa * pb, ra * rb), (pa ** n, ra ** n)):
        assert_agree(packed, ref)
        assert (packed == pa) == (ref == ra) and (packed == pb) == (ref == rb)
        assert (packed == r) == (ref == r)
