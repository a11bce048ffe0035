"""Exact coefficient arithmetic for the deformation parameters.

All coefficients are exact.  A scalar with no q in it is a plain
``fractions.Fraction``, in symbolic and numeric mode alike; a rational times
a Laurent monomial in the ``q_ij`` (one symbol per pair ``i < j``) is a
QCoefficient.  The reduced Koszul complex additionally needs sums of such
terms and quotients of the sums, so this module provides a small tower

    QCoefficient  (nonzero rational * nontrivial Laurent monomial)
    QPolynomial   (finite sums of rational multiples of monomials)
    QFraction     (quotients of QPolynomials, no normal form beyond
                   clearing monomial denominators)

together with ``NumericAssignment`` which evaluates everything at concrete
nonzero rationals.  ``coefficient`` is the one factory for monomial terms and
returns a Fraction whenever the monomial cancels, so a QCoefficient never
equals a rational.  All of them mix under the ordinary operators.
The conventions ``q_ii = 1`` and ``q_ji = q_ij^{-1}`` are baked in: only
pairs with ``i < j`` are ever stored.

No floating point appears anywhere; homology ranks are discrete and
unforgiving of rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Pair = tuple[int, int]


def all_pairs(n: int) -> list[Pair]:
    """The parameter pairs (i, j) with 1 <= i < j <= n, lexicographic."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _check_pair(pair: Pair) -> Pair:
    i, j = pair
    if not (1 <= i < j):
        raise ValueError(f"parameter pair must satisfy 1 <= i < j, got {pair}")
    return (i, j)


class QExponent:
    """Exponent vector of a Laurent monomial in the q_ij.

    Stored sparsely as a sorted tuple of ((i, j), exponent) with i < j and
    nonzero exponents only, so equality and hashing are structural.
    """

    __slots__ = ("_items",)

    def __init__(self, entries: Mapping[Pair, int] | Iterable[tuple[Pair, int]] = ()):
        merged: dict[Pair, int] = {}
        for pair, e in dict(entries).items():
            _check_pair(pair)
            if e:
                merged[pair] = e
        self._items = tuple(sorted(merged.items()))

    @classmethod
    def of(cls, i: int, j: int, e: int = 1) -> "QExponent":
        """Exponent of q_ij^e, normalising q_ji to q_ij^{-1}."""
        if i == j:
            return cls()
        if i > j:
            i, j, e = j, i, -e
        return cls({(i, j): e})

    def items(self) -> tuple[tuple[Pair, int], ...]:
        return self._items

    def is_trivial(self) -> bool:
        return not self._items

    def __mul__(self, other: "QExponent") -> "QExponent":
        merged = dict(self._items)
        for pair, e in other._items:
            merged[pair] = merged.get(pair, 0) + e
        return QExponent(merged)

    def __pow__(self, n: int) -> "QExponent":
        if n == 0:
            return QExponent()
        return QExponent({pair: e * n for pair, e in self._items})

    def inverse(self) -> "QExponent":
        return self ** -1

    def specialize(self, assignment: "NumericAssignment") -> Fraction:
        value = Fraction(1)
        for (i, j), e in self._items:
            value *= assignment.value(i, j) ** e
        return value

    def __eq__(self, other) -> bool:
        return isinstance(other, QExponent) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __str__(self) -> str:
        if not self._items:
            return "1"
        parts = []
        for (i, j), e in self._items:
            parts.append(f"q({i},{j})" + (f"^{e}" if e != 1 else ""))
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"QExponent({dict(self._items)!r})"


def coefficient(scalar, exponent: QExponent) -> "Scalar":
    """scalar * q^exponent: a plain Fraction when no q survives."""
    if not scalar or exponent.is_trivial():
        return Fraction(scalar)
    return QCoefficient(scalar, exponent)


class QCoefficient:
    """Exact scalar: nonzero rational number times a nontrivial Laurent
    monomial in the q_ij.

    Products, powers and inverses that cancel the monomial come back as
    Fractions through ``coefficient``; sums and differences are QFractions.
    """

    __slots__ = ("scalar", "exponent")

    def __init__(self, scalar, exponent: QExponent):
        if not scalar or exponent.is_trivial():
            raise ValueError("a QCoefficient needs a nonzero scalar and a "
                             "nontrivial monomial; use coefficient()")
        self.scalar = Fraction(scalar)
        self.exponent = exponent

    @classmethod
    def q_power(cls, i: int, j: int, e: int = 1) -> "Scalar":
        return coefficient(1, QExponent.of(i, j, e))

    def __mul__(self, other):
        if isinstance(other, QCoefficient):
            return coefficient(self.scalar * other.scalar, self.exponent * other.exponent)
        if isinstance(other, (Fraction, int)):
            return coefficient(self.scalar * other, self.exponent)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "QCoefficient":
        return QCoefficient(-self.scalar, self.exponent)

    def __add__(self, other) -> "QFraction":
        return _lift(self) + other

    __radd__ = __add__

    def __sub__(self, other) -> "QFraction":
        return _lift(self) - other

    def __rsub__(self, other) -> "QFraction":
        return other - _lift(self)

    def inverse(self) -> "QCoefficient":
        return QCoefficient(1 / self.scalar, self.exponent.inverse())

    def __pow__(self, n: int) -> "Scalar":
        return coefficient(self.scalar ** n, self.exponent ** n)

    def specialize(self, assignment: "NumericAssignment") -> Fraction:
        """Evaluate at the assignment; exact rational result."""
        return self.scalar * self.exponent.specialize(assignment)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QCoefficient):
            return NotImplemented
        return self.scalar == other.scalar and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.scalar, self.exponent))

    def __str__(self) -> str:
        if self.scalar == 1:
            return str(self.exponent)
        if self.scalar == -1:
            return "-" + str(self.exponent)
        return f"{self.scalar}*{self.exponent}"

    def __repr__(self) -> str:
        return f"QCoefficient({self.scalar!r}, {self.exponent!r})"


Scalar = Fraction | QCoefficient


def specialize(value, assignment: "NumericAssignment") -> Fraction:
    """Evaluate any scalar at the assignment; a rational is its own value."""
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    return value.specialize(assignment)


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
    def distinct_primes(cls, n: int) -> "NumericAssignment":
        """Assign pairwise distinct primes, lexicographically over pairs.

        Distinct primes are multiplicatively independent over the rationals,
        so this numeric model reproduces the symbolic-generic regime exactly.
        """
        pairs = all_pairs(n)
        primes: list[int] = []
        candidate = 2
        while len(primes) < len(pairs):
            if all(candidate % p for p in primes):
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


class QPolynomial:
    """Finite sum of rational multiples of Laurent monomials in the q_ij."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[QExponent, Fraction] = ()):
        cleaned = {m: c if type(c) is Fraction else Fraction(c)
                   for m, c in dict(terms).items() if c != 0}
        self._terms = cleaned

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({QExponent(): Fraction(1)})

    @classmethod
    def from_coefficient(cls, c: "Scalar | int") -> "QPolynomial":
        """The one lift of a scalar into the polynomials."""
        if isinstance(c, QCoefficient):
            return cls({c.exponent: c.scalar})
        return cls({QExponent(): c})

    def terms(self) -> tuple[tuple[QExponent, Fraction], ...]:
        return tuple(sorted(self._terms.items(), key=lambda kv: str(kv[0])))

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        merged = dict(self._terms)
        for m, c in other._terms.items():
            merged[m] = merged.get(m, Fraction(0)) + c
        return QPolynomial(merged)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        out: dict[QExponent, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return QPolynomial(out)

    def specialize(self, assignment: NumericAssignment | None) -> Fraction:
        total = Fraction(0)
        for m, c in self._terms.items():
            if m.is_trivial():
                total += c
            elif assignment is None:
                raise ValueError("symbolic polynomial needs a numeric assignment")
            else:
                total += c * m.specialize(assignment)
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(str(coefficient(c, m)) for m, c in self.terms())

    def __repr__(self) -> str:
        return f"QPolynomial({self._terms!r})"


_ONE = QPolynomial.one()


class QFraction:
    """Quotient of two QPolynomials with a nonzero denominator.

    There is no gcd-based normal form; instead a denominator that happens to
    be a single monomial is cleared into the numerator (Laurent monomials are
    units), which makes zero tests trivial.  Equality is decided by cross
    multiplication.  Operands may be QFractions, QCoefficients, Fractions or
    ints; a rational factor scales the numerator without a polynomial
    product.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QPolynomial, den: QPolynomial = _ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = _ONE
        elif len(den._terms) == 1 and den != _ONE:
            ((m, c),) = den._terms.items()
            num = num * QPolynomial({m.inverse(): 1 / c})
            den = _ONE
        self.num = num
        self.den = den

    def __add__(self, other) -> "QFraction":
        other = _lift(other)
        if self.den == other.den:
            return QFraction(self.num + other.num, self.den)
        return QFraction(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "QFraction":
        return QFraction(-self.num, self.den)

    def __sub__(self, other) -> "QFraction":
        return self + (-other)

    def __rsub__(self, other) -> "QFraction":
        return -self + other

    def __mul__(self, other) -> "QFraction":
        if isinstance(other, (Fraction, int)):
            return QFraction(QPolynomial({m: c * other for m, c in self.num._terms.items()}),
                             self.den)
        other = _lift(other)
        return QFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QFraction":
        other = _lift(other)
        return QFraction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "QFraction":
        return _lift(other) / self

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def specialize(self, assignment: NumericAssignment | None) -> Fraction:
        return self.num.specialize(assignment) / self.den.specialize(assignment)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (QFraction, QCoefficient, Fraction, int)):
            return NotImplemented
        other = _lift(other)
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self) -> int:
        # hashing requires a normal form; QFractions are not dict keys
        raise TypeError("QFraction is unhashable")

    def __str__(self) -> str:
        if self.den == _ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"QFraction({self.num!r}, {self.den!r})"


def _lift(value: "QFraction | QCoefficient | Fraction | int") -> QFraction:
    if isinstance(value, QFraction):
        return value
    return QFraction(QPolynomial.from_coefficient(value))
