"""Coefficient arithmetic: group laws, specialization, exactness, the
single terms c * q^m, which are QMonomials, the edge of the packed exponent
fields, and agreement with the tuple-and-Fraction reference."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qhyperplane.hyperplane import AlgebraSpec
from qhyperplane.qscalar import (QMonomial, all_pairs, distinct_primes, specialize,
                                 symbol, term)
from qscalar_reference import RefPolynomial, mono

PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def qc(scalar, exps=()):
    """The single term scalar * prod q_ij^e over the ((i, j), e) given, built
    from symbols, powers and the rational, as a QMonomial; the rational 0
    when the scalar is zero."""
    out = symbol(1, 2) ** 0 * scalar          # a QMonomial even without a symbol
    for (i, j), e in dict(exps).items():
        out = out * symbol(i, j) ** e
    return out


def lift(a):
    return a if isinstance(a, QMonomial) else qc(a)


nonzero_scalars = st.fractions(min_value=-8, max_value=8).filter(lambda f: f != 0)
exponent_maps = st.dictionaries(st.sampled_from(PAIRS), st.integers(-4, 4), max_size=4)
# single terms, and plain Fractions to mix with them
coefficients = (st.builds(lambda s, e: qc(s, e.items()), nonzero_scalars, exponent_maps)
                | nonzero_scalars)


def prime_assignment():
    return distinct_primes(4)


# -- spec examples ------------------------------------------------------------

def test_mul_inverse_pair_cancels():
    a = qc(1, {(1, 2): 1}.items())
    b = qc(1, {(1, 2): -1}.items())
    assert a * b == 1
    assert term(a * b) == (1, mono())


def test_mul_disjoint_monomials():
    a = qc(2, {(1, 2): 1}.items())
    b = qc(3, {(1, 3): 2}.items())
    assert a * b == qc(6, {(1, 2): 1, (1, 3): 2}.items())


def test_mul_zero_absorbs():
    assert Fraction(0) * qc(5, {(1, 2): 3}.items()) == 0
    assert not qc(5, {(1, 2): 3}.items()) * 0


def test_inverse_componentwise():
    assert qc(2, {(1, 2): 1}.items()) ** -1 == qc(Fraction(1, 2), {(1, 2): -1}.items())
    assert qc(1, {(1, 2): 1}.items()) ** -1 == qc(1, {(1, 2): -1}.items())
    assert qc(-3, {(2, 3): -2}.items()) ** -1 == qc(Fraction(-1, 3), {(2, 3): 2}.items())


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fraction(0) ** -1
    # zero times a term is the rational 0, not a term to invert
    with pytest.raises(ZeroDivisionError):
        qc(0, {(1, 2): 1}.items()) ** -1


def test_specialize_direct():
    nu = {(1, 2): Fraction(3)}
    assert specialize(qc(1, {(1, 2): 2}.items()), nu) == 9
    nu2 = {(1, 2): Fraction(2)}
    assert specialize(qc(Fraction(1, 2), {(1, 2): -1}.items()), nu2) == Fraction(1, 4)
    assert specialize(qc(1), nu) == 1


def test_specialize_missing_pair_raises():
    nu = {(1, 2): Fraction(3)}
    with pytest.raises(KeyError):
        specialize(qc(1, {(1, 3): 1}.items()), nu)


def test_exponent_orientation():
    spec = AlgebraSpec.symbolic(3)
    e = spec.q_power(3, 1, 2)         # q_31^2 is q_13^{-2}
    assert term(e) == (1, mono({(1, 3): -2}.items()))
    assert spec.q_power(1, 3, -2) == e
    assert spec.q_power(2, 2, 5) == 1


def test_symbol_is_the_one_term_q_ij():
    assert symbol(1, 3) == qc(1, {(1, 3): 1}.items())


def test_symbol_needs_a_pair_i_below_j():
    # each pair has its own exponent field; no other pair may alias one
    for i, j in ((3, 3), (2, 1), (0, 1), (-1, 4)):
        with pytest.raises(ValueError):
            symbol(i, j)


def test_a_product_with_zero_is_the_rational_zero():
    a = qc(3, {(1, 2): 5}.items())
    for z in (a * 0, 0 * a, a * Fraction(0), Fraction(0) * a):
        assert type(z) is Fraction and z == 0 and not z
        assert str(z) == "0" and z == qc(0)


# -- group and homomorphism properties ---------------------------------------

@given(coefficients, coefficients, coefficients)
def test_multiplication_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * Fraction(1) == a
    assert a * a ** -1 == 1
    assert a * b == b * a


@given(coefficients, coefficients)
def test_specialize_is_a_homomorphism(a, b):
    nu = prime_assignment()
    assert specialize(a * b, nu) == specialize(a, nu) * specialize(b, nu)


@given(coefficients)
def test_is_one_iff_prime_specialization_is_one(a):
    # distinct primes are multiplicatively independent over the rationals, so
    # a monic monomial specializes to 1 only when it is trivial; the rational
    # factor is divided out first, since 1/3 * q13 specializes to 1 at q13 = 3;
    # term's coefficient may be an int, so the division is made in Fractions
    nu = prime_assignment()
    monic = a * (Fraction(1) / term(a)[0])
    assert (monic == 1) == (specialize(monic, nu) == 1)


@given(coefficients, st.integers(-3, 3))
def test_power_matches_repeated_product(a, n):
    expected = Fraction(1)
    step = a if n >= 0 else a ** -1
    for _ in range(abs(n)):
        expected = expected * step
    assert a ** n == expected


# -- what a term stores, and what it does not do --------------------------------

def test_terms_store_integers_as_ints():
    # a Fraction is stored only where its denominator is not 1; an integer
    # one is stored as an int, by lifts, rational factors, powers and products
    half, third = qc(Fraction(1, 2), {(1, 2): 1}.items()), qc(Fraction(1, 3), {(1, 3): 1}.items())
    assert type(half.c) is Fraction and str(half) == "1/2*q(1,2)"
    for t in (qc(Fraction(4, 2), {(1, 2): 1}.items()), qc(2) * Fraction(3, 3),
              half ** -1, qc(-1) ** -3, half * (third * 6), half * half ** -1):
        assert type(t.c) is int


def test_a_term_has_no_division_and_no_sum():
    # no symbolic scalar is ever divided, and none is a sum
    a = qc(-2, {(1, 2): 1}.items())
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


@given(coefficients, coefficients)
def test_fraction_equality_by_cross_multiplication(a, b):
    # terms are canonical, so equality compares coefficient and monomial
    fa, fb = lift(a), lift(b)
    assert (fa == fb) == (a == b) and fa * fb == a * b


# -- single terms ----------------------------------------------------------------

@given(coefficients, coefficients)
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
    assert term(qc(-2, {(1, 3): 1}.items())) == (-2, mono({(1, 3): 1}.items()))


@pytest.mark.parametrize("scalar, text", [
    (1, "q(1,2){}"), (-1, "-q(1,2){}"), (Fraction(1, 2), "1/2*q(1,2){}")])
@pytest.mark.parametrize("e, power", [(1, ""), (-1, "^-1"), (2, "^2")])
def test_term_string(scalar, text, e, power):
    assert str(qc(scalar, {(1, 2): e}.items())) == text.format(power)


def test_term_string_without_or_with_several_symbols():
    assert [str(qc(c)) for c in (1, -1, Fraction(1, 2))] == ["1", "-1", "1/2"]
    assert str(qc(-1, {(1, 3): 1}.items())) == "-q(1,3)"
    assert str(qc(Fraction(1, 2), {(1, 2): 1, (2, 3): 2}.items())) == "1/2*q(1,2)*q(2,3)^2"


@given(coefficients, nonzero_scalars, st.integers(-3, 3))
def test_fraction_arithmetic_with_mixed_operands(a, r, k):
    nu = prime_assignment()
    f = lift(qc(-3, {(1, 2): 1}.items()))            # -3 * q12, never rational
    value = specialize(f, nu)
    for combined, expected in (
            (f * r, value * r), (r * f, r * value), (f * a, value * specialize(a, nu)),
            (a * f, specialize(a, nu) * value), (f * k, value * k),
            (k * f, k * value)):
        assert specialize(combined, nu) == expected
        assert isinstance(combined, QMonomial) or not k and combined == 0
    assert f * r * (1 / r) == f
    assert bool(f) and f != 0 and f * 0 == 0 and not f * 0


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
# mostly integers, which take the int fast path, and some proper fractions
terms = st.tuples(st.integers(-4, 4).filter(bool) | nonzero_scalars,
                  st.dictionaries(st.sampled_from(PAIRS5), st.integers(-3, 3), max_size=3))


def both(c, e):
    """The term c * q^e as a QMonomial and as a RefPolynomial."""
    return qc(c, e.items()), RefPolynomial.term(c, e.items())


def assert_agree(packed, ref):
    assert str(packed) == str(ref)
    for q in (distinct_primes(5), {pair: Fraction(-k - 1, 3) for k, pair in enumerate(PAIRS5)}):
        assert specialize(packed, q) == ref.specialize(q)
    assert term(packed) == ref.single()


@given(terms, terms, st.integers(-3, 3), st.integers(-3, 3).filter(bool) | nonzero_scalars)
def test_packed_arithmetic_agrees_with_the_reference(a, b, n, r):
    (pa, ra), (pb, rb) = both(*a), both(*b)
    for packed, ref in ((pa, ra), (pa * pb, ra * rb), (pa * r, ra * r),
                        (r * pa, r * ra), (pa ** n, ra ** n)):
        assert_agree(packed, ref)
        assert (packed == pa) == (ref == ra) and (packed == pb) == (ref == rb)
        assert (packed == r) == (ref == r)
