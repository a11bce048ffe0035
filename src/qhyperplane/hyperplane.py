"""The quantum hyperplane: monomial calculus and scaling automorphisms.

The algebra has N generators x_1, ..., x_N subject to x_i x_j = q_ij x_j x_i
for i < j, with q_ii = 1 and q_ji = q_ij^{-1}; AlgebraSpec holds the q_ij for
i < j, a symbol or a rational each, and q_power reads any q_ij^e off them.
Monomials are written in the normal form x_1^{a_1} ... x_N^{a_N}, so a
monomial is just a multi-index (a tuple of nonnegative ints) together with a
scalar coefficient: a Fraction, or in symbolic mode a QMonomial q^m.  The
Koszul blocks and the oracle's coboundaries turn the q_ij and p_i into int
pairs once per complex and compute in ints (see koszul, hochschild).

A scaling automorphism acts diagonally on the generators, sigma(x_i) = p_i x_i
with p_i nonzero; the canonical one is p_i = prod_j q_ji, which is exactly the
choice that makes the top twisted homology class survive.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import combinations
from operator import add

from .qscalar import Pair, Scalar, all_pairs, scalar_prod, specialize, symbol

MultiIndex = tuple[int, ...]

SYMBOLIC = "symbolic"
NUMERIC = "numeric"


# ---------------------------------------------------------------------------
# multi-index helpers

def degree(alpha: MultiIndex) -> int:
    return sum(alpha)


def unit(n: int, i: int) -> MultiIndex:
    """The multi-index with a single 1 in (1-based) position i."""
    if not 1 <= i <= n:
        raise IndexError(f"generator index {i} out of range 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def add_index(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(add, a, b))


def support(alpha: MultiIndex) -> tuple[int, ...]:
    return tuple(i + 1 for i, v in enumerate(alpha) if v > 0)


def compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    """All multi-indices of the given length and total, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def iter_multidegrees(n: int, max_total: int) -> Iterator[MultiIndex]:
    """All multi-indices with total degree <= max_total, by (total, lex)."""
    for total in range(max_total + 1):
        yield from compositions(total, n)


def exterior_under(gamma: MultiIndex) -> Iterator[MultiIndex]:
    """All 0/1 multi-indices beta <= gamma, ordered by (weight, lex)."""
    positions, zero = [k for k, x in enumerate(gamma) if x], [0] * len(gamma)
    for w in range(len(positions) + 1):
        for chosen in combinations(positions, w):
            beta = zero.copy()
            for k in chosen:
                beta[k] = 1
            yield tuple(beta)


# ---------------------------------------------------------------------------
# the algebra

class AlgebraSpec(namedtuple("AlgebraSpec", "n mode q")):
    """The quantum symmetric algebra on n generators.

    q, a mapping (i, j) -> scalar, holds q_ij for every pair i < j: the
    symbol q_ij in mode "symbolic" (independent symbols, the generic
    regime), an exact nonzero rational in mode "numeric".  The mode is
    stored, not read off q, which is empty at n = 1.
    """

    __slots__ = ()

    def __new__(cls, n: int, mode: str, q: Mapping[Pair, Scalar]):
        if n < 1:
            raise ValueError("need at least one generator")
        if mode not in (SYMBOLIC, NUMERIC):
            raise ValueError(f"unknown mode {mode!r}")
        if set(q) != set(all_pairs(n)):
            raise ValueError(f"q needs exactly the pairs i < j up to {n}")
        if not all(q.values()):
            raise ValueError("every q_ij must be nonzero")
        return super().__new__(cls, n, mode, q)

    @classmethod
    def symbolic(cls, n: int) -> "AlgebraSpec":
        return cls(n, SYMBOLIC, {(i, j): symbol(i, j) for i, j in all_pairs(n)})

    @classmethod
    def numeric(cls, n: int, values: Mapping[Pair, Fraction]) -> "AlgebraSpec":
        return cls(n, NUMERIC, {pair: Fraction(v) for pair, v in values.items()})

    def q_power(self, i: int, j: int, e: int = 1) -> Scalar:
        """q_ij^e, with q_ji = q_ij^{-1} and q_ii = 1."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"generator pair ({i},{j}) out of range")
        if i == j or e == 0:
            return Fraction(1)
        return self.q[i, j] ** e if i < j else self.q[j, i] ** -e


# ---------------------------------------------------------------------------
# normal ordering

def commutation_factor(spec: AlgebraSpec, gamma: MultiIndex, i: int) -> Scalar:
    """The unique c with x^gamma x_i = c * x_i x^gamma.

    Moving x_i leftwards through the normal-ordered word, each letter x_k
    with k > i contributes q_ik^{-1} and each with k < i contributes q_ki,
    so c = prod_k q_ki^{gamma(k)}.
    """
    if not 1 <= i <= spec.n:
        raise IndexError(f"generator index {i} out of range 1..{spec.n}")
    return scalar_prod(spec.q_power(k, i, g) for k, g in enumerate(gamma, start=1)
                       if g and k != i)


def monomial_product(spec: AlgebraSpec, a: MultiIndex, b: MultiIndex) -> tuple[Scalar, MultiIndex]:
    """x^a * x^b = c * x^{a+b}; c collects one q_jk^{-1} per inversion."""
    coeff = scalar_prod(spec.q_power(j, k, -a_k * b_j) for j, b_j in enumerate(b, start=1) if b_j
                        for k, a_k in enumerate(a[j:], start=j + 1) if a_k)
    return coeff, add_index(a, b)


# ---------------------------------------------------------------------------
# scaling automorphisms

class ScalingAutomorphism(namedtuple("ScalingAutomorphism", "p")):
    """sigma(x_i) = p_i x_i with every p_i nonzero; p is a tuple of scalars."""

    __slots__ = ()

    def __new__(cls, p: tuple[Scalar, ...]):
        if not all(p):
            raise ValueError("scaling coefficients must be nonzero")
        return super().__new__(cls, p)

    @classmethod
    def identity(cls, n: int) -> "ScalingAutomorphism":
        return cls((Fraction(1),) * n)

    @classmethod
    def from_rationals(cls, values: Sequence) -> "ScalingAutomorphism":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.p)


def canonical_automorphism(spec: AlgebraSpec) -> ScalingAutomorphism:
    """p_i = prod_j q_ji, the choice with a surviving top homology class."""
    return automorphism_for_top_class(spec, (0,) * spec.n)


def automorphism_for_top_class(spec: AlgebraSpec, alpha: MultiIndex) -> ScalingAutomorphism:
    """The scaling automorphism making x^alpha (x) x_1^...^x_N a top class.

    p_i = prod_j q_ji^{alpha(j)+1}, the commutation factor of
    x^{alpha+(1,...,1)} at x_i; alpha = 0 recovers the canonical one.
    """
    if len(alpha) != spec.n:
        raise ValueError("alpha must have one entry per generator")
    shifted = tuple(a + 1 for a in alpha)
    return ScalingAutomorphism(tuple(commutation_factor(spec, shifted, i)
                                     for i in range(1, spec.n + 1)))


def specialize_automorphism(sigma: ScalingAutomorphism,
                            q: Mapping[Pair, Fraction]) -> ScalingAutomorphism:
    return ScalingAutomorphism(tuple(specialize(c, q) for c in sigma.p))


def sigma_commutes_at(spec: AlgebraSpec, sigma: ScalingAutomorphism,
                      gamma: MultiIndex, i: int) -> bool:
    """Does x^gamma x_i = sigma(x_i) x^gamma hold?"""
    return commutation_factor(spec, gamma, i) == sigma.p[i - 1]


def is_admissible(spec: AlgebraSpec, sigma: ScalingAutomorphism, gamma: MultiIndex) -> bool:
    """Membership in the set of multidegrees whose classes survive.

    gamma qualifies when every generator in its support sigma-commutes with
    x^gamma; these are exactly the multidegrees carrying homology.
    """
    return all(sigma_commutes_at(spec, sigma, gamma, i) for i in support(gamma))


# ---------------------------------------------------------------------------
# genericity

def is_generic(spec: AlgebraSpec, bound: int) -> MultiIndex | None:
    """Bounded search for a genericity violation: the witness, or None when
    there is none up to the bound.

    A witness is a multidegree, supported on at least two generators, whose
    monomial commutes with every generator in its support (multiples of a
    single generator always commute with themselves and are not violations).
    The answer is read off the identity-twist admissible set that
    homology.enumerate_admissible solves, whose members come by (degree,
    lex): the witness is the first member on two or more generators.
    Symbolic mode is generic structurally: a nontrivial monomial relation
    among independent symbols is impossible, and the solver finds none.
    """
    from .homology import enumerate_admissible    # homology imports this module
    if bound < 2:
        raise ValueError("bound must be at least 2")
    members = enumerate_admissible(spec, ScalingAutomorphism.identity(spec.n), bound).members
    return next((g for g in members if len(support(g)) >= 2), None)
