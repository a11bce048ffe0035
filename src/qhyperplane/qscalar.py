"""Exact coefficient arithmetic for the deformation parameters.

All coefficients are exact, and there are two kinds of scalar:

    Fraction   a scalar with no q in it, in symbolic and numeric mode alike
    QMonomial  a signed Laurent monomial c * q^m in the q_ij (one symbol per
               pair i < j), with c a nonzero rational

No scalar is a sum: the symbols enter only through products and powers of
the q_ij and the p_i of a twist, so every symbolic scalar is a single term.
The coefficient c is an int, and a Fraction only where its denominator is
not 1: every operation stores an integer as an int, so the canonical and
solve-top twists compute in ints alone.  ``symbol`` builds the term q_ij,
``term`` reads c and m's exponents back, and ``packed`` c and m itself.

A monomial prod q_ij^e is one int, sum e * 2^(W k) (Kronecker substitution):
k = (j-1)(j-2)/2 + i-1 numbers the pairs i < j whatever N is, and each
signed exponent has a W = 64 bit field.  So 0 is the monomial 1, a product
is a sum and a power a multiple; only printing, ``specialize`` and ``term``
decode exponents.  The packing is injective while every exponent is below
2^63 in magnitude.  A power n with |n| > 1 raises OverflowError when an
exponent of its result reaches 2^32, and ** +-1 only negates, so every
exponent is a sum of exponents below 2^32, one per symbol or power factor:
a field overflows only in a product of 2^31 or more factors.

Both kinds of scalar mix under *; a QMonomial has no + and no unary -,
so it meets a rational only as a factor, and a zero factor gives the
rational 0.  ``specialize`` evaluates either at nonzero rationals, one per
pair i < j, such as ``distinct_primes`` returns.  A term is inverted by
``** -1``, and nothing else symbolic is divided.  No floating point appears
anywhere; homology ranks are discrete and unforgiving of rounding.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import prod

Pair = tuple[int, int]
Coefficient = int | Fraction
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
        return value.c * prod((q[pair] ** e for pair, e in _mono_items(value.m)),
                              start=Fraction(1))
    return Fraction(value)


def _coef(c: Fraction | int) -> Coefficient:
    """A rational coefficient as an int when its denominator is 1."""
    return c.numerator if c.denominator == 1 else c


class QMonomial:
    """The signed Laurent monomial c * q^m: a nonzero int or Fraction c and a
    packed monomial m, so equality compares the two.

    A rational factor scales c, and a zero one gives the rational 0, never a
    zero term.  There is no sum and no division: only powers, negative ones
    included, and products, which stay single terms.
    """

    __slots__ = ("c", "m")

    def __init__(self, c: Coefficient, m: Monomial):
        self.c = c
        self.m = m

    def __mul__(self, other) -> "QMonomial | Fraction":
        if isinstance(other, QMonomial):
            return QMonomial(_coef(self.c * other.c), self.m + other.m)
        if not isinstance(other, (Fraction, int)):
            return NotImplemented
        return QMonomial(_coef(self.c * other), self.m) if other else Fraction(0)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QMonomial":
        m = self.m * n
        if abs(n) > 1 and any(abs(e) >= 1 << 32 for _, e in _mono_items(m)):
            raise OverflowError(f"({self}) ** {n} has an exponent of 2^32 or more")
        c = self.c
        return QMonomial(c ** abs(n) if c in (1, -1) else _coef(Fraction(c) ** n), m)

    def __eq__(self, other) -> bool:
        if isinstance(other, QMonomial):
            return self.c == other.c and self.m == other.m
        if isinstance(other, (Fraction, int)):
            return not self.m and self.c == other
        return NotImplemented

    def __str__(self) -> str:
        c, m = self.c, self.m
        if not m:
            return str(c)
        if c == 1:
            return _mono_str(m)
        if c == -1:
            return "-" + _mono_str(m)
        return f"{c}*{_mono_str(m)}"


Scalar = Fraction | QMonomial


def scalar_prod(factors: Iterator[Scalar]) -> Scalar:
    """The product, Fraction(1) if empty, started at the first factor: no
    QMonomial goes through Fraction.__mul__ to its own __rmul__."""
    return prod(factors, start=next(factors, Fraction(1)))


def symbol(i: int, j: int) -> QMonomial:
    """The symbol q_ij, i < j, as the term 1 * q_ij."""
    if not 1 <= i < j:
        raise ValueError(f"q({i},{j}) needs 1 <= i < j")
    return QMonomial(1, 1 << (W * ((j - 1) * (j - 2) // 2 + i - 1)))


def packed(value: Scalar) -> tuple[Coefficient, Monomial]:
    """(c, m) for the scalar c * q^m, m packed; a rational has m = 0."""
    return (value.c, value.m) if isinstance(value, QMonomial) else (value, 0)


def term(value: Scalar) -> tuple[Coefficient, Exponents]:
    """(c, exponents of m) for the scalar c * q^m; a rational is its own
    term, with no exponents."""
    if isinstance(value, QMonomial):
        return value.c, _mono_items(value.m)
    return Fraction(value), ()
