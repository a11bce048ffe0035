"""Exact coefficient arithmetic for the deformation parameters.

All coefficients are exact, and there are two kinds of scalar:

    Fraction     a scalar with no q in it, in symbolic and numeric mode alike
    QPolynomial  a Laurent polynomial in the q_ij (one symbol per pair i < j)

A Laurent monomial is a plain sorted tuple of ((i, j), e) with i < j and e
nonzero, so equality and hashing are those of tuples and the empty tuple is
1.  A polynomial is a dict from monomial to nonzero Fraction, held by a
QPolynomial; a single term c * q^m is the polynomial {m: c}, ``symbol``
builds the term q_ij, and ``term`` reads (c, m) back.  Both kinds mix under
+ and *, negate, and subtract from a rational, and ``specialize`` evaluates
either at a table of nonzero rationals, one per pair i < j, such as
``distinct_primes`` returns.  No quotient of polynomials exists: a single
term is inverted by ``** -1``, and nothing else symbolic is ever divided.

No floating point appears anywhere; homology ranks are discrete and
unforgiving of rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Pair = tuple[int, int]
Monomial = tuple[tuple[Pair, int], ...]
Polynomial = dict[Monomial, Fraction]


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
# Laurent monomials

def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for pair, e in b:
        merged[pair] = merged.get(pair, 0) + e
    return tuple(sorted(item for item in merged.items() if item[1]))


def _mono_pow(a: Monomial, n: int) -> Monomial:
    return tuple((pair, e * n) for pair, e in a) if n else ()


def _mono_value(a: Monomial, q: Mapping[Pair, Fraction]) -> Fraction:
    value = Fraction(1)
    for pair, e in a:
        value *= q[pair] ** e
    return value


def _mono_str(a: Monomial) -> str:
    return "*".join(f"q({i},{j})" + (f"^{e}" if e != 1 else "")
                    for (i, j), e in a) or "1"


def specialize(value, q: Mapping[Pair, Fraction]) -> Fraction:
    """Evaluate any scalar at the values q[i, j] of the q_ij, i < j; a
    rational is its own value."""
    if isinstance(value, QPolynomial):
        return sum((c * _mono_value(m, q) for m, c in value.num.items()),
                   Fraction(0))
    return Fraction(value)


# ---------------------------------------------------------------------------
# polynomials: dicts from monomial to nonzero Fraction

def _poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    out = dict(a)
    for m, c in b.items():
        s = out[m] + c if m in out else c
        if s:
            out[m] = s
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
                return {_mono_mul(m2, m): c2 for m2, c2 in other.items()}
            if c == -1:
                return {_mono_mul(m2, m): -c2 for m2, c2 in other.items()}
    out: Polynomial = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, c = _mono_mul(m1, m2), c1 * c2
            out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


def _term_str(c: Fraction, m: Monomial) -> str:
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
    """Laurent polynomial in the q_ij: a dict from monomial to nonzero
    Fraction, canonical term by term, so equality is dict equality.

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
            return QPolynomial({m: c * other for m, c in self.num.items()} if other else {})
        return QPolynomial(_poly_mul(self.num, _lift(other).num))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPolynomial":
        c, m = term(self)
        return QPolynomial({_mono_pow(m, n): c if c == 1 else c ** n})

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (QPolynomial, Fraction, int)):
            return NotImplemented
        return self.num == _lift(other).num

    def __str__(self) -> str:
        return _poly_str(self.num)


Scalar = Fraction | QPolynomial


def symbol(i: int, j: int) -> QPolynomial:
    """The symbol q_ij, i < j, as the one-term polynomial q_ij."""
    return QPolynomial({(((i, j), 1),): Fraction(1)})


def term(value: Scalar) -> tuple[Fraction, Monomial]:
    """(c, m) for a scalar that is the single term c * q^m; a rational is
    its own term.  A sum, or the zero polynomial, raises ValueError."""
    if not isinstance(value, QPolynomial):
        return Fraction(value), ()
    if len(value.num) != 1:
        raise ValueError(f"{value} is not a single term")
    (m, c), = value.num.items()
    return c, m


def _lift(value: "Scalar | int") -> QPolynomial:
    if isinstance(value, QPolynomial):
        return value
    return QPolynomial({(): Fraction(value)} if value else {})
