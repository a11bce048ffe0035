"""Exact coefficient arithmetic for the deformation parameters.

All coefficients are exact, and there are two kinds of scalar:

    Fraction     a scalar with no q in it, in symbolic and numeric mode alike
    QPolynomial  a Laurent polynomial in the q_ij (one symbol per pair i < j)

A polynomial is a dict from Laurent monomial to nonzero coefficient, held by
a QPolynomial.  A coefficient is an int, and a Fraction only where its
denominator is not 1: every operation stores an integer as an int, so the
canonical and solve-top twists compute in ints alone.  A single term c * q^m
is the polynomial {m: c}, ``symbol`` builds the term q_ij, and ``term`` reads
c and m's exponents back.

A monomial prod q_ij^e is one int, sum e * 2^(W k) (Kronecker substitution):
k = (j-1)(j-2)/2 + i-1 numbers the pairs i < j whatever N is, and each
signed exponent has a W = 64 bit field.  So 0 is the monomial 1, a product
is a sum and a power a multiple; only printing, ``specialize`` and ``term``
decode exponents.  The packing is injective while every exponent is below
2^63 in magnitude.  A power n with |n| > 1 raises OverflowError when an
exponent of its result reaches 2^32, and ** +-1 only negates, so every
exponent is a sum of exponents below 2^32, one per symbol or power factor:
a field overflows only in a product of 2^31 or more factors.

Both kinds of scalar mix under + and *, negate, and subtract from a rational,
and ``specialize`` evaluates either at nonzero rationals, one per pair i < j,
such as ``distinct_primes`` returns.  No quotient of polynomials exists: a
single term is inverted by ``** -1``, and nothing else symbolic is divided.
No floating point appears anywhere; homology ranks are discrete and
unforgiving of rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterator, Mapping

Pair = tuple[int, int]
Coefficient = int | Fraction
Monomial = int                               # packed exponents, 0 is 1
Exponents = tuple[tuple[Pair, int], ...]     # ((i, j), e), e nonzero, sorted
Polynomial = dict[Monomial, Coefficient]

W = 64
_HALF = 1 << (W - 1)
_MASK = (1 << W) - 1


def all_pairs(n: int) -> list[Pair]:
    """The parameter pairs (i, j) with 1 <= i < j <= n, lexicographic."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def distinct_primes(n: int, coprime_to: int = 1) -> dict[Pair, Fraction]:
    """Pairwise distinct primes that do not divide coprime_to, one per pair
    and lexicographically over pairs.

    Distinct primes are multiplicatively independent over the rationals, so
    this numeric model reproduces the symbolic-generic regime exactly.
    """
    pairs = all_pairs(n)
    primes: list[int] = []
    candidate = 2
    while len(primes) < len(pairs):
        if all(candidate % p for p in primes) and coprime_to % candidate:
            primes.append(candidate)
        candidate += 1
    return {pair: Fraction(p) for pair, p in zip(pairs, primes)}


# ---------------------------------------------------------------------------
# Laurent monomials, packed into ints

def _mono_items(a: Monomial) -> Exponents:
    """The nonzero exponents of a packed monomial, lexicographic in (i, j)."""
    items = []
    i, j = 1, 2
    while a:
        e = ((a + _HALF) & _MASK) - _HALF        # the signed low field
        if e:
            items.append(((i, j), e))
        a = (a - e) >> W
        i, j = (i + 1, j) if i + 1 < j else (1, j + 1)
    return tuple(sorted(items))


def _mono_str(a: Monomial) -> str:
    return "*".join(f"q({i},{j})" + (f"^{e}" if e != 1 else "")
                    for (i, j), e in _mono_items(a)) or "1"


def specialize(value, q: Mapping[Pair, Fraction]) -> Fraction:
    """Evaluate any scalar at the values q[i, j] of the q_ij, i < j; a
    rational is its own value."""
    if isinstance(value, QPolynomial):
        return sum((c * prod((q[pair] ** e for pair, e in _mono_items(m)), start=Fraction(1))
                    for m, c in value.num.items()), Fraction(0))
    return Fraction(value)


# ---------------------------------------------------------------------------
# polynomials: dicts from packed monomial to nonzero coefficient

def _coef(c: Fraction | int) -> Coefficient:
    """A rational coefficient as an int when its denominator is 1."""
    return c.numerator if c.denominator == 1 else c


def _poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    out = dict(a)
    for m, c in b.items():
        s = out[m] + c if m in out else c
        if s:
            out[m] = _coef(s)
        else:
            del out[m]
    return out


def _poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    # a factor +-q^m shifts the monomials of the other one by m, injectively,
    # so no two terms merge and none cancels
    for single, other in ((b, a), (a, b)):
        if len(single) == 1:
            (m, c), = single.items()
            if c == 1:
                return {m2 + m: c2 for m2, c2 in other.items()}
            if c == -1:
                return {m2 + m: -c2 for m2, c2 in other.items()}
    out: Polynomial = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, c = m1 + m2, c1 * c2
            out[m] = out[m] + c if m in out else c
    return {m: _coef(c) for m, c in out.items() if c}


def _term_str(c: Coefficient, m: Monomial) -> str:
    if not m:
        return str(c)
    if c == 1:
        return _mono_str(m)
    if c == -1:
        return "-" + _mono_str(m)
    return f"{c}*{_mono_str(m)}"


def _poly_str(a: Polynomial) -> str:
    if not a:
        return "0"
    terms = sorted(a.items(), key=lambda mc: _mono_str(mc[0]))
    return " + ".join(_term_str(c, m) for m, c in terms)


class QPolynomial:
    """Laurent polynomial in the q_ij: a dict from packed monomial to nonzero
    int or Fraction coefficient, canonical term by term, so equality is dict
    equality.

    Operands may be QPolynomials, Fractions or ints; a rational factor
    scales the terms without a polynomial product.  There is no division:
    the Laurent polynomials form a ring, not a field, so only a single term
    has powers here, negative ones included.
    """

    __slots__ = ("num",)

    def __init__(self, num: Polynomial):
        self.num = num

    def __add__(self, other) -> "QPolynomial":
        return QPolynomial(_poly_add(self.num, _lift(other).num))

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial({m: -c for m, c in self.num.items()})

    def __rsub__(self, other) -> "QPolynomial":
        return -self + other

    def __mul__(self, other) -> "QPolynomial":
        if isinstance(other, (Fraction, int)):
            other = _coef(other)
            return QPolynomial({m: _coef(c * other) for m, c in self.num.items()} if other else {})
        return QPolynomial(_poly_mul(self.num, _lift(other).num))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPolynomial":
        c, m = _single(self)
        if abs(n) > 1 and any(abs(e) >= 1 << 32 for _, e in _mono_items(m * n)):
            raise OverflowError(f"({self}) ** {n} has an exponent of 2^32 or more")
        return QPolynomial({m * n: c ** abs(n) if c in (1, -1) else _coef(Fraction(c) ** n)})

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (QPolynomial, Fraction, int)):
            return NotImplemented
        return self.num == _lift(other).num

    def __str__(self) -> str:
        return _poly_str(self.num)


Scalar = Fraction | QPolynomial


def scalar_prod(factors: Iterator[Scalar]) -> Scalar:
    """The product, Fraction(1) if empty, started at the first factor: no
    QPolynomial goes through Fraction.__mul__ to its own __rmul__."""
    return prod(factors, start=next(factors, Fraction(1)))


def symbol(i: int, j: int) -> QPolynomial:
    """The symbol q_ij, i < j, as the one-term polynomial q_ij."""
    if not 1 <= i < j:
        raise ValueError(f"q({i},{j}) needs 1 <= i < j")
    return QPolynomial({1 << (W * ((j - 1) * (j - 2) // 2 + i - 1)): 1})


def term(value: Scalar) -> tuple[Coefficient, Exponents]:
    """(c, exponents of m) for a scalar that is the single term c * q^m; a
    rational is its own term.  A sum, or the zero polynomial, raises
    ValueError."""
    if not isinstance(value, QPolynomial):
        return Fraction(value), ()
    c, m = _single(value)
    return c, _mono_items(m)


def _single(value: QPolynomial) -> tuple[Coefficient, Monomial]:
    if len(value.num) != 1:
        raise ValueError(f"{value} is not a single term")
    (m, c), = value.num.items()
    return c, m


def _lift(value: "Scalar | int") -> QPolynomial:
    if isinstance(value, QPolynomial):
        return value
    return QPolynomial({0: _coef(value)} if value else {})
