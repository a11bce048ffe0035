"""Exact coefficient arithmetic for the deformation parameters.

All coefficients are exact.  The basic scalar is a rational number times a
Laurent monomial in the deformation parameters ``q_ij`` (one symbol per pair
``i < j``); the reduced Koszul complex additionally needs sums of such terms
and quotients of the sums, so this module provides a small tower

    QCoefficient  (rational * monomial, a multiplicative group)
    QPolynomial   (finite sums of QCoefficient terms)
    QFraction     (quotients of QPolynomials, no normal form beyond
                   clearing monomial denominators)

together with ``NumericAssignment`` which evaluates everything at concrete
nonzero rationals.  The conventions ``q_ii = 1`` and ``q_ji = q_ij^{-1}``
are baked in: only pairs with ``i < j`` are ever stored.

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

    def get(self, i: int, j: int) -> int:
        if i == j:
            return 0
        flip = i > j
        key = (j, i) if flip else (i, j)
        for pair, e in self._items:
            if pair == key:
                return -e if flip else e
        return 0

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


class QCoefficient:
    """Exact scalar: rational number times a Laurent monomial in the q_ij.

    The zero coefficient is canonical (zero scalar, trivial monomial), so
    equality is structural.  Nonzero coefficients form a commutative group
    under multiplication.
    """

    __slots__ = ("scalar", "exponent")

    def __init__(self, scalar, exponent: QExponent | None = None):
        scalar = Fraction(scalar)
        exponent = exponent if exponent is not None else QExponent()
        if scalar == 0:
            exponent = QExponent()
        self.scalar = scalar
        self.exponent = exponent

    @classmethod
    def one(cls) -> "QCoefficient":
        return cls(1)

    @classmethod
    def zero(cls) -> "QCoefficient":
        return cls(0)

    @classmethod
    def rational(cls, value) -> "QCoefficient":
        return cls(Fraction(value))

    @classmethod
    def q_power(cls, i: int, j: int, e: int = 1) -> "QCoefficient":
        return cls(1, QExponent.of(i, j, e))

    def is_zero(self) -> bool:
        return self.scalar == 0

    def is_one(self) -> bool:
        return self.scalar == 1 and self.exponent.is_trivial()

    def __mul__(self, other: "QCoefficient") -> "QCoefficient":
        if self.is_zero() or other.is_zero():
            return QCoefficient.zero()
        return QCoefficient(self.scalar * other.scalar, self.exponent * other.exponent)

    def __neg__(self) -> "QCoefficient":
        return QCoefficient(-self.scalar, self.exponent)

    def inverse(self) -> "QCoefficient":
        if self.is_zero():
            raise ZeroDivisionError("inversion of the zero coefficient")
        return QCoefficient(1 / self.scalar, self.exponent.inverse())

    def __pow__(self, n: int) -> "QCoefficient":
        if n < 0:
            return self.inverse() ** (-n)
        out = QCoefficient.one()
        for _ in range(n):
            out = out * self
        return out

    def specialize(self, assignment: "NumericAssignment") -> Fraction:
        """Evaluate at the assignment; exact rational result."""
        return self.scalar * self.exponent.specialize(assignment)

    def as_fraction(self) -> Fraction:
        """The value of a coefficient with trivial monomial part."""
        if not self.exponent.is_trivial():
            raise ValueError(f"coefficient {self} is not a plain rational")
        return self.scalar

    def __eq__(self, other) -> bool:
        return (isinstance(other, QCoefficient)
                and self.scalar == other.scalar
                and self.exponent == other.exponent)

    def __hash__(self) -> int:
        return hash((self.scalar, self.exponent))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.exponent.is_trivial():
            return str(self.scalar)
        if self.scalar == 1:
            return str(self.exponent)
        if self.scalar == -1:
            return "-" + str(self.exponent)
        return f"{self.scalar}*{self.exponent}"

    def __repr__(self) -> str:
        return f"QCoefficient({self.scalar!r}, {self.exponent!r})"


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
        cleaned = {m: Fraction(c) for m, c in dict(terms).items() if c != 0}
        self._terms = cleaned

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({QExponent(): Fraction(1)})

    @classmethod
    def from_coefficient(cls, c: QCoefficient) -> "QPolynomial":
        if c.is_zero():
            return cls()
        return cls({c.exponent: c.scalar})

    def terms(self) -> tuple[tuple[QExponent, Fraction], ...]:
        return tuple(sorted(self._terms.items(), key=lambda kv: str(kv[0])))

    def is_zero(self) -> bool:
        return not self._terms

    def monomial_term(self) -> QCoefficient | None:
        """The sole term if this is a monomial (or zero), else None."""
        if not self._terms:
            return QCoefficient.zero()
        if len(self._terms) == 1:
            ((m, c),) = self._terms.items()
            return QCoefficient(c, m)
        return None

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

    def scale(self, c) -> "QPolynomial":
        c = Fraction(c)
        return QPolynomial({m: c * v for m, v in self._terms.items()})

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

    def __hash__(self) -> int:
        return hash(tuple(sorted(((m, c) for m, c in self._terms.items()),
                                 key=lambda kv: str(kv[0]))))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(str(QCoefficient(c, m)) for m, c in self.terms())

    def __repr__(self) -> str:
        return f"QPolynomial({self._terms!r})"


class QFraction:
    """Quotient of two QPolynomials with a nonzero denominator.

    There is no gcd-based normal form; instead a denominator that happens to
    be a single monomial is cleared into the numerator (Laurent monomials are
    units), which keeps every purely numeric computation in lowest form and
    makes zero tests trivial.  Equality is decided by cross multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QPolynomial, den: QPolynomial | None = None):
        den = den if den is not None else QPolynomial.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = QPolynomial.one()
        else:
            unit = den.monomial_term()
            if unit is not None:
                num = num * QPolynomial.from_coefficient(unit.inverse())
                den = QPolynomial.one()
        self.num = num
        self.den = den

    @classmethod
    def zero(cls) -> "QFraction":
        return cls(QPolynomial.zero())

    @classmethod
    def one(cls) -> "QFraction":
        return cls(QPolynomial.one())

    @classmethod
    def from_coefficient(cls, c: QCoefficient) -> "QFraction":
        return cls(QPolynomial.from_coefficient(c))

    @classmethod
    def rational(cls, value) -> "QFraction":
        return cls(QPolynomial.from_coefficient(QCoefficient.rational(value)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "QFraction") -> "QFraction":
        return QFraction(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    def __neg__(self) -> "QFraction":
        return QFraction(-self.num, self.den)

    def __sub__(self, other: "QFraction") -> "QFraction":
        return self + (-other)

    def __mul__(self, other: "QFraction") -> "QFraction":
        return QFraction(self.num * other.num, self.den * other.den)

    def scale(self, c) -> "QFraction":
        return QFraction(self.num.scale(c), self.den)

    def inverse(self) -> "QFraction":
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero")
        return QFraction(self.den, self.num)

    def specialize(self, assignment: NumericAssignment | None) -> Fraction:
        return self.num.specialize(assignment) / self.den.specialize(assignment)

    def as_fraction(self) -> Fraction:
        return self.specialize(None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QFraction):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self) -> int:
        # hashing requires a normal form; QFractions are not dict keys
        raise TypeError("QFraction is unhashable")

    def __str__(self) -> str:
        if self.den == QPolynomial.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"QFraction({self.num!r}, {self.den!r})"
