"""Exact scalar arithmetic for the deformation parameters.

All scalars are exact, and there are two kinds, which never multiply each
other:

    Fraction   a scalar with no q in it, in symbolic and numeric mode alike
    QMonomial  a Laurent monomial q^m in the q_ij (one symbol per pair i < j)

No scalar is a sum, and no symbolic one has a coefficient: the symbols
enter only through products and powers of the q_ij, so every symbolic
scalar is a bare monomial.  A QMonomial times a Fraction or an int raises
TypeError either way round; the two kinds meet only in comparisons, where
q^0 equals 1.  ``symbol`` builds q_ij, and ``term`` and ``packed`` read a
scalar back as r * q^m, r = 1 for a QMonomial and m = 0 for a Fraction.

A monomial prod q_ij^e is one int, sum e * 2^(W k) (Kronecker substitution):
k = (j-1)(j-2)/2 + i-1 numbers the pairs i < j whatever N is, and each
signed exponent has a W = 64 bit field.  So 0 is the monomial 1, a product
is a sum and a power a multiple; only printing, ``specialize`` and ``term``
decode exponents.  The packing is injective while every exponent is below
2^63 in magnitude.  A power n with |n| > 1 raises OverflowError when an
exponent of its result reaches 2^32, and ** +-1 only negates, so every
exponent is a sum of exponents below 2^32, one per symbol or power factor:
a field overflows only in a product of 2^31 or more factors.

``specialize`` evaluates either kind at nonzero rationals, one per pair
i < j, such as ``distinct_primes`` returns.  A monomial is inverted by
``** -1``, and nothing else symbolic is divided.  No floating point appears
anywhere; homology ranks are discrete and unforgiving of rounding.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import prod

Pair = tuple[int, int]
Monomial = int                               # packed exponents, 0 is 1
Exponents = tuple[tuple[Pair, int], ...]     # ((i, j), e), e nonzero, sorted

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
    a monomial relation among the q_ij, such as admissibility, holds at them
    exactly when it holds over the symbols.  A rank can only drop under
    specialization, so a homology dim at the primes is at least the generic
    one: 0 there proves 0 for generic q, and k > 0 proves only dim <= k.
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
    if isinstance(value, QMonomial):
        return prod((q[pair] ** e for pair, e in _mono_items(value.m)), start=Fraction(1))
    return Fraction(value)


class QMonomial:
    """The Laurent monomial q^m, m packed, so equality compares the m.

    The only product is with another monomial, which adds the m; a rational
    factor raises TypeError.  There is no sum and no division: only powers,
    negative ones included, and products, which stay monomials.
    """

    __slots__ = ("m",)

    def __init__(self, m: Monomial):
        self.m = m

    def __mul__(self, other) -> "QMonomial":
        return QMonomial(self.m + other.m) if isinstance(other, QMonomial) else NotImplemented

    def __pow__(self, n: int) -> "QMonomial":
        m = self.m * n
        if abs(n) > 1 and any(abs(e) >= 1 << 32 for _, e in _mono_items(m)):
            raise OverflowError(f"({self}) ** {n} has an exponent of 2^32 or more")
        return QMonomial(m)

    def __eq__(self, other) -> bool:
        if isinstance(other, QMonomial):
            return self.m == other.m
        if isinstance(other, (Fraction, int)):
            return not self.m and other == 1
        return NotImplemented

    def __str__(self) -> str:
        return _mono_str(self.m)


Scalar = Fraction | QMonomial


def scalar_prod(factors: Iterator[Scalar]) -> Scalar:
    """The product of factors of one kind, Fraction(1) if empty.  It starts
    at the first factor, as it must: a QMonomial times Fraction(1) raises
    TypeError."""
    return prod(factors, start=next(factors, Fraction(1)))


def symbol(i: int, j: int) -> QMonomial:
    """The symbol q_ij, i < j, as a QMonomial."""
    if not 1 <= i < j:
        raise ValueError(f"q({i},{j}) needs 1 <= i < j")
    return QMonomial(1 << (W * ((j - 1) * (j - 2) // 2 + i - 1)))


def packed(value: Scalar) -> tuple[int | Fraction, Monomial]:
    """(r, m) for the scalar r * q^m, m packed: (1, m) for a monomial, and
    (r, 0) for a rational r."""
    return (1, value.m) if isinstance(value, QMonomial) else (value, 0)


def term(value: Scalar) -> tuple[int | Fraction, Exponents]:
    """(r, exponents of m) for the scalar r * q^m: (1, exponents) for a
    monomial, and (r, ()) for a rational r."""
    if isinstance(value, QMonomial):
        return 1, _mono_items(value.m)
    return Fraction(value), ()
