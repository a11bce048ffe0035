"""Exact coefficient arithmetic for the deformation parameters.

All coefficients are exact, and there are three kinds of scalar:

    Fraction      a scalar with no q in it, in symbolic and numeric mode alike
    QCoefficient  a nonzero rational times a nontrivial Laurent monomial in
                  the q_ij (one symbol per pair i < j)
    QPolynomial   a Laurent polynomial in the q_ij

A Laurent monomial is a plain sorted tuple of ((i, j), e) with i < j and e
nonzero, so equality and hashing are those of tuples and the empty tuple is
1; ``monomial`` builds q_ij^e, turning q_ji into q_ij^{-1} and q_ii into 1.
A polynomial is a dict from monomial to nonzero Fraction, held by a
QPolynomial.  ``coefficient`` is the one factory for monomial terms and
returns a Fraction whenever the monomial is trivial, so a QCoefficient never
equals a rational.  All three kinds mix under +, - and *, and ``specialize``
evaluates any of them at a ``NumericAssignment`` of concrete nonzero
rationals.  No quotient of polynomials exists: a monomial is inverted by
``** -1``, and nothing else symbolic is ever divided.

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


def _check_pair(pair: Pair) -> Pair:
    i, j = pair
    if not (1 <= i < j):
        raise ValueError(f"parameter pair must satisfy 1 <= i < j, got {pair}")
    return (i, j)


# ---------------------------------------------------------------------------
# Laurent monomials

def monomial(i: int, j: int, e: int = 1) -> Monomial:
    """The monomial q_ij^e, normalising q_ji to q_ij^{-1} and q_ii to 1."""
    if i == j or e == 0:
        return ()
    if i > j:
        i, j, e = j, i, -e
    return ((_check_pair((i, j)), e),)


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


def _mono_value(a: Monomial, assignment: "NumericAssignment") -> Fraction:
    value = Fraction(1)
    for (i, j), e in a:
        value *= assignment.value(i, j) ** e
    return value


def _mono_str(a: Monomial) -> str:
    return "*".join(f"q({i},{j})" + (f"^{e}" if e != 1 else "")
                    for (i, j), e in a) or "1"


def coefficient(scalar, exponent: Monomial) -> "Scalar":
    """scalar * q^exponent: a plain Fraction when no q survives."""
    if not scalar or not exponent:
        return Fraction(scalar)
    return QCoefficient(scalar, exponent)


class QCoefficient:
    """Exact scalar: nonzero rational number times a nontrivial Laurent
    monomial in the q_ij.

    Products and powers that cancel the monomial come back as Fractions
    through ``coefficient``; sums and differences are QPolynomials.
    """

    __slots__ = ("scalar", "exponent")

    def __init__(self, scalar, exponent: Monomial):
        if not scalar or not exponent:
            raise ValueError("a QCoefficient needs a nonzero scalar and a "
                             "nontrivial monomial; use coefficient()")
        self.scalar = Fraction(scalar)
        self.exponent = exponent

    def __mul__(self, other):
        if isinstance(other, QCoefficient):
            return coefficient(self.scalar * other.scalar,
                               _mono_mul(self.exponent, other.exponent))
        if isinstance(other, (Fraction, int)):
            return coefficient(self.scalar * other, self.exponent)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "QCoefficient":
        return QCoefficient(-self.scalar, self.exponent)

    def __add__(self, other) -> "QPolynomial":
        return _lift(self) + other

    __radd__ = __add__

    def __sub__(self, other) -> "QPolynomial":
        return _lift(self) - other

    def __rsub__(self, other) -> "QPolynomial":
        return other - _lift(self)

    def __pow__(self, n: int) -> "Scalar":
        return coefficient(self.scalar ** n, _mono_pow(self.exponent, n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QCoefficient):
            return NotImplemented
        return self.scalar == other.scalar and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.scalar, self.exponent))

    def __str__(self) -> str:
        if self.scalar == 1:
            return _mono_str(self.exponent)
        if self.scalar == -1:
            return "-" + _mono_str(self.exponent)
        return f"{self.scalar}*{_mono_str(self.exponent)}"

    def __repr__(self) -> str:
        return f"QCoefficient({self.scalar!r}, {self.exponent!r})"


Scalar = Fraction | QCoefficient


def rational_part(value: Scalar) -> Fraction:
    """The rational factor of a scalar: its scalar part, or itself."""
    return value.scalar if isinstance(value, QCoefficient) else Fraction(value)


def specialize(value, assignment: "NumericAssignment") -> Fraction:
    """Evaluate any scalar at the assignment; a rational is its own value."""
    if isinstance(value, QCoefficient):
        return value.scalar * _mono_value(value.exponent, assignment)
    if isinstance(value, QPolynomial):
        return sum((c * _mono_value(m, assignment) for m, c in value.num.items()),
                   Fraction(0))
    return Fraction(value)


class NumericAssignment:
    """Concrete nonzero rational values for every pair q_ij, i < j."""

    def __init__(self, values: Mapping[Pair, Fraction]):
        table: dict[Pair, Fraction] = {}
        for pair, v in values.items():
            _check_pair(pair)
            v = Fraction(v)
            if v == 0:
                raise ValueError(f"q{pair} must be nonzero")
            table[pair] = v
        self._values = table

    @classmethod
    def distinct_primes(cls, n: int, coprime_to: int = 1) -> "NumericAssignment":
        """Assign pairwise distinct primes that do not divide coprime_to,
        lexicographically over pairs.

        Distinct primes are multiplicatively independent over the rationals,
        so this numeric model reproduces the symbolic-generic regime exactly.
        """
        pairs = all_pairs(n)
        primes: list[int] = []
        candidate = 2
        while len(primes) < len(pairs):
            if all(candidate % p for p in primes) and coprime_to % candidate:
                primes.append(candidate)
            candidate += 1
        return cls({pair: Fraction(p) for pair, p in zip(pairs, primes)})

    @classmethod
    def uniform(cls, n: int, value) -> "NumericAssignment":
        value = Fraction(value)
        return cls({pair: value for pair in all_pairs(n)})

    def value(self, i: int, j: int) -> Fraction:
        """Value of q_ij for any i != j; q_ji is the reciprocal of q_ij."""
        if i == j:
            return Fraction(1)
        if i < j:
            key, flip = (i, j), False
        else:
            key, flip = (j, i), True
        if key not in self._values:
            raise KeyError(f"no value assigned for q{key}")
        v = self._values[key]
        return 1 / v if flip else v

    def covers(self, n: int) -> bool:
        return set(all_pairs(n)) <= set(self._values)

    def __eq__(self, other) -> bool:
        return isinstance(other, NumericAssignment) and self._values == other._values

    def __repr__(self) -> str:
        return f"NumericAssignment({self._values!r})"


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
    out: Polynomial = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, c = _mono_mul(m1, m2), c1 * c2
            out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


def _poly_str(a: Polynomial) -> str:
    if not a:
        return "0"
    terms = sorted(a.items(), key=lambda mc: _mono_str(mc[0]))
    return " + ".join(str(coefficient(c, m)) for m, c in terms)


class QPolynomial:
    """Laurent polynomial in the q_ij: a dict from monomial to nonzero
    Fraction, canonical term by term, so equality is dict equality.

    Operands may be QPolynomials, QCoefficients, Fractions or ints; a
    rational factor scales the terms without a polynomial product.  There is
    no division: the Laurent polynomials form a ring, not a field.
    """

    __slots__ = ("num",)

    def __init__(self, num: Polynomial):
        self.num = num

    def __add__(self, other) -> "QPolynomial":
        return QPolynomial(_poly_add(self.num, _lift(other).num))

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial({m: -c for m, c in self.num.items()})

    def __sub__(self, other) -> "QPolynomial":
        return self + (-other)

    def __rsub__(self, other) -> "QPolynomial":
        return -self + other

    def __mul__(self, other) -> "QPolynomial":
        if isinstance(other, (Fraction, int)):
            return QPolynomial({m: c * other for m, c in self.num.items()} if other else {})
        return QPolynomial(_poly_mul(self.num, _lift(other).num))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (QPolynomial, QCoefficient, Fraction, int)):
            return NotImplemented
        return self.num == _lift(other).num

    def __str__(self) -> str:
        return _poly_str(self.num)

    def __repr__(self) -> str:
        return f"QPolynomial({self.num!r})"


def _lift(value: "QPolynomial | QCoefficient | Fraction | int") -> QPolynomial:
    if isinstance(value, QPolynomial):
        return value
    if isinstance(value, QCoefficient):
        return QPolynomial({value.exponent: value.scalar})
    return QPolynomial({(): Fraction(value)} if value else {})
