"""Coefficient arithmetic: group laws, specialization, exactness, and the
rule that a scalar with no q in it is a plain Fraction."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qhyperplane.qscalar import (NumericAssignment, QCoefficient, QPolynomial,
                                 coefficient, monomial, rational_part, specialize)

PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def mono(exps=()):
    """The monomial with the given ((i, j), e) exponents, i < j."""
    return tuple(sorted((pair, e) for pair, e in dict(exps).items() if e))


def qc(scalar, exps=()):
    """scalar * monomial through the factory: a Fraction when no q is left."""
    return coefficient(Fraction(scalar), mono(exps))


def inverse(a):
    return a ** -1 if isinstance(a, QCoefficient) else 1 / a


def lift(a):
    if isinstance(a, QCoefficient):
        return QPolynomial({a.exponent: a.scalar})
    return QPolynomial({mono(): Fraction(a)} if a else {})


nonzero_scalars = st.fractions(min_value=-8, max_value=8).filter(lambda f: f != 0)
exponent_maps = st.dictionaries(st.sampled_from(PAIRS), st.integers(-4, 4), max_size=4)
# a trivial exponent map gives a Fraction, so this draws from both scalar types
coefficients = st.builds(lambda s, e: qc(s, e.items()), nonzero_scalars, exponent_maps)


def prime_assignment():
    return NumericAssignment.distinct_primes(4)


# -- spec examples ------------------------------------------------------------

def test_mul_inverse_pair_cancels():
    a = qc(1, {(1, 2): 1}.items())
    b = qc(1, {(1, 2): -1}.items())
    assert a * b == 1
    assert type(a * b) is Fraction


def test_mul_disjoint_monomials():
    a = qc(2, {(1, 2): 1}.items())
    b = qc(3, {(1, 3): 2}.items())
    assert a * b == qc(6, {(1, 2): 1, (1, 3): 2}.items())


def test_mul_zero_absorbs():
    assert Fraction(0) * qc(5, {(1, 2): 3}.items()) == 0
    assert type(qc(5, {(1, 2): 3}.items()) * 0) is Fraction


def test_inverse_componentwise():
    assert qc(2, {(1, 2): 1}.items()) ** -1 == qc(Fraction(1, 2), {(1, 2): -1}.items())
    assert qc(1, {(1, 2): 1}.items()) ** -1 == qc(1, {(1, 2): -1}.items())
    assert qc(-3, {(2, 3): -2}.items()) ** -1 == qc(Fraction(-1, 3), {(2, 3): 2}.items())


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inverse(qc(0, {(1, 2): 1}.items()))
    with pytest.raises(ValueError):
        QCoefficient(0, monomial(1, 2))


def test_specialize_direct():
    nu = NumericAssignment({(1, 2): Fraction(3)})
    assert specialize(qc(1, {(1, 2): 2}.items()), nu) == 9
    nu2 = NumericAssignment({(1, 2): Fraction(2)})
    assert specialize(qc(Fraction(1, 2), {(1, 2): -1}.items()), nu2) == Fraction(1, 4)
    assert specialize(qc(1), nu) == 1


def test_specialize_missing_pair_raises():
    nu = NumericAssignment({(1, 2): Fraction(3)})
    with pytest.raises(KeyError):
        specialize(qc(1, {(1, 3): 1}.items()), nu)


def test_exponent_orientation():
    e = monomial(3, 1, 2)             # q_31^2 stored as q_13^{-2}
    assert e == (((1, 3), -2),)
    assert monomial(1, 3, -2) == e
    assert monomial(2, 2, 5) == ()


def test_zero_is_canonical():
    z = qc(0, {(1, 2): 5}.items())
    assert z == 0
    assert type(z) is Fraction


# -- group and homomorphism properties ---------------------------------------

@given(coefficients, coefficients, coefficients)
def test_multiplication_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * Fraction(1) == a
    assert a * inverse(a) == 1
    assert a * b == b * a


@given(coefficients, coefficients)
def test_specialize_is_a_homomorphism(a, b):
    nu = prime_assignment()
    assert specialize(a * b, nu) == specialize(a, nu) * specialize(b, nu)


@given(coefficients)
def test_is_one_iff_prime_specialization_is_one(a):
    # distinct primes are multiplicatively independent over the rationals, so
    # a monic monomial specializes to 1 only when it is trivial; the rational
    # factor is divided out first, since 1/3 * q13 specializes to 1 at q13 = 3
    nu = prime_assignment()
    monic = a * (1 / rational_part(a))
    assert (monic == 1) == (specialize(monic, nu) == 1)


@given(coefficients, st.integers(-3, 3))
def test_power_matches_repeated_product(a, n):
    expected = Fraction(1)
    step = a if n >= 0 else inverse(a)
    for _ in range(abs(n)):
        expected = expected * step
    assert a ** n == expected


# -- the polynomial layer -----------------------------------------------------

def poly(*cs):
    """The sum of the scalars, as a QPolynomial."""
    out = lift(Fraction(0))
    for c in cs:
        out = out + c
    return out


def test_polynomial_cancellation():
    a = qc(1, {(1, 2): 1}.items())
    assert (poly(a) - poly(a)).num == {}
    assert poly(a, -a).num == {}


def test_polynomial_stores_fractions():
    # an int coefficient is stored as a Fraction, so reports print it alike
    p = poly(3, qc(Fraction(1, 2), {(1, 2): 1}.items()))
    assert all(type(c) is Fraction for c in p.num.values())
    assert p.num[mono()] == 3
    assert str(p) == "3 + 1/2*q(1,2)"


def test_polynomial_product_expands():
    a = qc(1, {(1, 2): 1}.items())
    p = poly(Fraction(1), -a)                 # 1 - q12
    q = poly(Fraction(1), a)                  # 1 + q12
    assert (p * q).num == poly(Fraction(1), -(a * a)).num
    assert p * q == poly(Fraction(1), -(a * a))


def test_fraction_field_laws_on_binomials():
    a = qc(1, {(1, 2): 1}.items())
    binom = 1 - a                              # 1 - q12
    assert binom
    assert specialize(binom + a * binom, NumericAssignment(
        {(1, 2): Fraction(3)})) == (1 - 3) + 3 * (1 - 3)


def test_polynomial_has_no_division():
    # the Laurent polynomials are a ring: no symbolic scalar is ever divided
    binom = 1 - qc(1, {(1, 2): 1}.items())     # 1 - q12
    with pytest.raises(TypeError):
        1 / binom
    with pytest.raises(TypeError):
        binom / 2
    with pytest.raises(TypeError):
        hash(binom)


@given(coefficients, coefficients)
def test_fraction_equality_by_cross_multiplication(a, b):
    # terms are canonical, so equality compares the term dicts exactly
    fa, fb = lift(a), lift(b)
    assert (fa == fb) == (a == b)
    assert (fa - fb == 0) == (a == b) and fa * fb == a * b


# -- the Fraction rule -----------------------------------------------------------

@given(coefficients, coefficients)
def test_cancelling_product_is_a_fraction(a, b):
    # a * (b / a) cancels every q that a carries; b's own q survive
    product = a * (b * inverse(a))
    assert product == b and hash(product) == hash(b)
    cancelled = a * inverse(a)
    assert type(cancelled) is Fraction
    assert cancelled == 1 and hash(cancelled) == hash(Fraction(1))
    assert type(a ** 0) is Fraction
    # a QCoefficient always keeps a monomial, so it equals no rational
    if isinstance(a, QCoefficient):
        assert a != a.scalar and a.exponent != ()
    else:
        assert type(a) is Fraction


@given(coefficients, nonzero_scalars, st.integers(-3, 3))
def test_fraction_arithmetic_with_mixed_operands(a, r, k):
    nu = prime_assignment()
    f = 1 - lift(qc(1, {(1, 2): 1}.items()))          # 1 - q12, never zero
    value = specialize(f, nu)
    for combined, expected in (
            (f * r, value * r), (r * f, r * value), (f * a, value * specialize(a, nu)),
            (a * f, specialize(a, nu) * value), (f + a, value + specialize(a, nu)),
            (a + f, specialize(a, nu) + value), (r - f, r - value),
            (f - a, value - specialize(a, nu)), (f * k, value * k),
            (k * f, k * value)):
        assert isinstance(combined, QPolynomial)
        assert specialize(combined, nu) == expected
    assert f * r * (1 / r) == f
    assert not (f - f) and bool(f)
    assert f * 0 == 0 and not f * 0


def test_every_exported_name_resolves():
    import qhyperplane
    assert len(set(qhyperplane.__all__)) == len(qhyperplane.__all__)
    for name in qhyperplane.__all__:
        assert getattr(qhyperplane, name) is not None
