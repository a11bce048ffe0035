"""Test-only Laurent polynomials in the q_ij.  A monomial is a sorted tuple of
((i, j), e) with i < j and e nonzero, the empty tuple being 1, and a
polynomial is a dict from monomial to nonzero Fraction.  The tests compare
qscalar's terms, QMonomials, with one-term RefPolynomials operation by
operation, and the Koszul reference builds its defects 1 - p_i / c_i(gamma),
which are sums, from RefPolynomials."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Pair = tuple[int, int]
Monomial = tuple[tuple[Pair, int], ...]
Polynomial = dict[Monomial, Fraction]


def mono(exps=()) -> Monomial:
    """The monomial with the given ((i, j), e) exponents, i < j."""
    return tuple(sorted((pair, e) for pair, e in dict(exps).items() if e))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    merged = dict(a)
    for pair, e in b:
        merged[pair] = merged.get(pair, 0) + e
    return mono(merged.items())


def _mono_value(a: Monomial, q: Mapping[Pair, Fraction]) -> Fraction:
    value = Fraction(1)
    for pair, e in a:
        value *= q[pair] ** e
    return value


def _mono_str(a: Monomial) -> str:
    return "*".join(f"q({i},{j})" + (f"^{e}" if e != 1 else "")
                    for (i, j), e in a) or "1"


def _term_str(c: Fraction, m: Monomial) -> str:
    if not m:
        return str(c)
    if c == 1:
        return _mono_str(m)
    if c == -1:
        return "-" + _mono_str(m)
    return f"{c}*{_mono_str(m)}"


class RefPolynomial:
    """Laurent polynomial as a dict from tuple monomial to nonzero Fraction."""

    __slots__ = ("num",)

    def __init__(self, num: Polynomial):
        self.num = num

    @classmethod
    def term(cls, scalar, exps=()) -> "RefPolynomial":
        """scalar * q^m for the monomial m with the given exponents."""
        return cls({mono(exps): Fraction(scalar)} if scalar else {})

    def __add__(self, other) -> "RefPolynomial":
        out = dict(self.num)
        for m, c in _lift(other).num.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return RefPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "RefPolynomial":
        return RefPolynomial({m: -c for m, c in self.num.items()})

    def __sub__(self, other) -> "RefPolynomial":
        return self + -_lift(other)

    def __rsub__(self, other) -> "RefPolynomial":
        return -self + other

    def __mul__(self, other) -> "RefPolynomial":
        out: Polynomial = {}
        for m1, c1 in self.num.items():
            for m2, c2 in _lift(other).num.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return RefPolynomial({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RefPolynomial":
        c, m = self.single()
        return RefPolynomial({tuple((pair, e * n) for pair, e in m) if n else ():
                              c if c == 1 else c ** n})

    def __eq__(self, other) -> bool:
        return self.num == _lift(other).num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __str__(self) -> str:
        if not self.num:
            return "0"
        terms = sorted(self.num.items(), key=lambda mc: _mono_str(mc[0]))
        return " + ".join(_term_str(c, m) for m, c in terms)

    def single(self) -> tuple[Fraction, Monomial]:
        """(c, m) for the single term c * q^m; a sum raises ValueError."""
        if len(self.num) != 1:
            raise ValueError(f"{self} is not a single term")
        (m, c), = self.num.items()
        return c, m

    def specialize(self, q: Mapping[Pair, Fraction]) -> Fraction:
        return sum((c * _mono_value(m, q) for m, c in self.num.items()), Fraction(0))


def _lift(value) -> RefPolynomial:
    if isinstance(value, RefPolynomial):
        return value
    return RefPolynomial.term(value)
