"""Ground truth: the normalized twisted Hochschild complex, truncated by
multidegree.

Chain spaces in degree n are spanned by (n+1)-tuples a = (a_0, ..., a_n) of
monomials with no unit in slots 1..n.  The boundary multiplies adjacent
slots, with sign (-1)^i for slots i and i+1, and wraps the last slot around
through the twist, sigma acting before the wrap-around product, with sign
(-1)^n.  A product of nonunit monomials is never the unit, so this span is
a subcomplex of the full bar complex, isomorphic to its quotient by the
degenerate tensors and hence quasi-isomorphic to it for any bimodule, twisted
ones included (Loday, Cyclic Homology, 1.1.14-1.1.15); it vanishes above the
total degree.  Faces preserve the multidegree, so each multidegree gives a
finite complex with exact homology dimensions, compared cell by cell with
the grading of the homology report (the Koszul route's answer).

The matrices are written in a rescaled basis.  With m(b, c) the scalar in
x^b x^c = m(b, c) x^{b+c}, let W(a) be the scalar in x^{a_0} ... x^{a_n} =
W(a) x^gamma, and f(a) = [a_0|...|a_n] / W(a).  The inner face i carries
m(a_i, a_{i+1}) = W(a) / W(face), so in the basis f it is (-1)^i.  The
wrap-around face b = (a_n + a_0, a_1, ..., a_{n-1}) carries p^{a_n}
m(a_n, a_0); with x^{a_0} ... x^{a_{n-1}} = V x^{gamma-a_n}, W(a) =
V m(gamma-a_n, a_n) and m(a_n, a_0) W(b) = V m(a_n, gamma-a_n), so in the
basis f it is (-1)^n chi_gamma(a_n), chi_gamma(a) = p^a m(a, gamma-a) /
m(gamma-a, a).  As m is multiplicative in each argument, with x_i x_j =
t_ij x_j x_i, t_ij = m(e_i, e_j) / m(e_j, e_i) = 1 / t_ji, the ratio is
prod_{i,j} t_ij^(a_i (gamma_j - a_j)), whose a_i a_j factors cancel in
pairs: chi_gamma(a) = prod_i c_i(gamma)^(a_i), c_i(gamma) = p_i prod_j
t_ij^(gamma_j), a character.  It is made in ints from the p_i and the t_ij
that monomial_product gives once per complex, never from the Koszul
defects: chi_gamma(e_i) = 1 - delta_i(gamma) is what the comparison tests.
The change of basis is diagonal, so every rank is that of the plain
boundary.

Within a multidegree the ranks go up in degree, on the coboundary d_n
transposed: its column for a tensor b of degree n-1 is cofaces(n, b), a dict
{row a: int}.  A coface splits slot i of b as (x, y), entry (-1)^i, or b_0
as x + y into (x, b_1, ..., b_{n-1}, y), entry (-1)^n chi_gamma(y); only
this wrap face can meet another, a slot-0 split, and cancel it.  Row a is
scaled by den(a), the denominator of chi_gamma(a_n), which moves no pivot
(see exactlinalg), so every entry is an int.  Clearing by the pivot rows
of the coboundary one degree below (see exactlinalg) keeps every rank exact.
Most kept columns are never built, as their pivot is read off b (a
first-sight pivot, as in Ripser's emergent pairs; see exactlinalg): when
n >= 2 and a slot i >= 1 splits into two nonunits, at the last such i, the
split with x largest, _splits(b_i)[-1].  That coface keeps b_0 in slot 0,
where slot-0 splits and the wrap face have less; a split of an earlier slot
j >= 1 has less than b_j in slot j, and no later slot splits.  So no other
coface meets it, its entry +-den is nonzero, and it is the largest row.  At
n = 1 the slot-0 split and the wrap face are the same tensor.

A slot is packed into the int sum of a_i R^(N-i), R = bound + 1, and a tensor
(a_0, ..., a_k) into the int sum of a_i S^(k-i), S = R^N.  With no coordinate
past the bound each slot is below S, so int order is lex order on slots and
tensors alike, y = m - x is one subtraction, and a tensor's int is its row
and its column label, the columns ascending as the rows; a gamma past the
bound is refused, never aliased.  The pairs (x, y) with x + y = m and y
nonunit are listed once per complex in a split table, which tails, hence
bases, are read through; chi_gamma is kept for one gamma at a time.  Rank
needs decidable zero, so the oracle is numeric; see compare_with_koszul
for the cap and for symbolic input.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import comb, gcd, prod

from .exactlinalg import SparseExactMatrix
from .homology import build_report, predicted_dims
from .hyperplane import (AlgebraSpec, MultiIndex, NUMERIC, ScalingAutomorphism,
                         iter_multidegrees, monomial_product, specialize_automorphism, unit)
from .qscalar import distinct_primes, term

Tensor = int    # slots a_0..a_k packed as sum a_i S^(k-i), S = R^N

DEFAULT_CELL_CAP = 20000


class HochschildComplex:
    """Twisted Hochschild chains of one numeric algebra and scaling twist."""

    def __init__(self, spec: AlgebraSpec, sigma: ScalingAutomorphism, bound: int):
        if not all(isinstance(c, Fraction) for c in (*spec.q.values(), *sigma.p)):
            raise ValueError("the oracle needs numeric parameters and twist; "
                             "specialize symbolic input at distinct primes first")
        if sigma.n != spec.n:
            raise ValueError("automorphism size disagrees with the algebra")
        self.spec = spec
        self.sigma = sigma
        self._radix = bound + 1
        self._tail_cache: dict[tuple[int, int], list[Tensor]] = {}
        self._split_cache: dict[int, list[tuple[int, int]]] = {}
        self._chi_at: tuple[int, dict[int, tuple[int, int]]] = (-1, {})
        self._p = [c.as_integer_ratio() for c in sigma.p]
        units = [unit(spec.n, i) for i in range(1, spec.n + 1)]
        self._swaps = [[(monomial_product(spec, u, v)[0] / monomial_product(spec, v, u)[0])
                        .as_integer_ratio() for v in units] for u in units]   # t_ij

    def _pack(self, gamma: MultiIndex) -> int:
        """gamma as the int sum of gamma_i R^(N-i), refused past the bound."""
        radix, m = self._radix, 0
        if max(gamma) >= radix:
            raise ValueError(f"multidegree {gamma} has a coordinate over the bound {radix - 1}")
        for g in gamma:
            m = m * radix + g
        return m

    def _digits(self, m: int) -> MultiIndex:
        """The multi-index packed as m."""
        return tuple(m // self._radix ** e % self._radix for e in range(self.spec.n - 1, -1, -1))

    # -- bases ----------------------------------------------------------------

    def basis_size(self, n: int, gamma: MultiIndex) -> int:
        """len(basis(n, gamma)), by inclusion-exclusion over the k slots
        among 1..n forced to be the unit."""
        return sum((-1) ** k * comb(n, k) * prod(comb(g + n - k, n - k) for g in gamma)
                   for k in range(n + 1))

    def basis(self, n: int, gamma: MultiIndex) -> list[Tensor]:
        """Basis tensors of degree n and multidegree gamma, packed, ascending:
        the unit-headed ones are the n-slot tails, then the (n+1)-slot tails."""
        m = self._pack(gamma)
        return self._tails(m, n) + self._tails(m, n + 1)

    def _tails(self, m: int, slots: int) -> list[Tensor]:
        """Tensors of `slots` nonunit monomials with total m, packed, ascending;
        each list is built once per complex."""
        key = (m, slots)
        tails = self._tail_cache.get(key)
        if tails is None:
            if slots == 0:
                tails = [] if m else [0]
            else:   # x descending is the head y ascending
                place = self._radix ** (self.spec.n * (slots - 1))
                tails = [y * place + tail for x, y in reversed(self._splits(m))
                         for tail in self._tails(x, slots - 1)]
            self._tail_cache[key] = tails
        return tails

    def _splits(self, m: int) -> list[tuple[int, int]]:
        """The pairs (x, y) with x + y = m and y nonunit, x ascending, so that
        (0, m) comes first whenever m is nonunit; built once per complex."""
        pairs = self._split_cache.get(m)
        if pairs is None:
            xs = [0]
            for v in self._digits(m):
                xs = [x * self._radix + k for x in xs for k in range(v + 1)]
            pairs = self._split_cache[m] = [(x, m - x) for x in xs[:-1]]
        return pairs

    # -- the coboundary ---------------------------------------------------------

    def boundary_matrix(self, n: int, gamma: MultiIndex,
                        cleared: frozenset[Tensor] = frozenset()) -> SparseExactMatrix:
        """d_n transposed at one multidegree, n >= 1: its columns are the
        tensors b of basis(n-1, gamma) not in cleared, ascending, column b
        being cofaces(n, b), unbuilt; b's pivot is read off b where b has one
        (see the module docstring)."""
        slot = self._radix ** self.spec.n     # S: every packed slot is below it
        basis = self.basis(n - 1, gamma)
        columns = [b for b in basis if b not in cleared]
        pivots, splits = {}, self._splits
        for b in columns:
            head, place = b, 1
            for _ in range(n - 1):      # slots n-1 down to 1
                head, b_i = divmod(head, slot)
                pairs = splits(b_i)
                if len(pairs) > 1:
                    x, y = pairs[-1]
                    pivots[b] = ((head * slot + x) * slot + y) * place + b % place
                    break
                place *= slot
        return SparseExactMatrix(len(basis), columns, pivots, partial(self.cofaces, n))

    def cofaces(self, n: int, b: Tensor) -> dict[Tensor, int]:
        """Column b of d_n transposed, in the rescaled bases f: the cofaces a
        of b, scaled by den(a) of b's own multidegree; no entry is zero."""
        slot, wrap = self._radix ** self.spec.n, -1 if n & 1 else 1
        low = slot ** (n - 1)
        m = sum(b // slot ** k % slot for k in range(n))    # gamma, packed
        if self._chi_at[0] != m:
            self._chi_at = m, self._chi(m)
        chi, splits = self._chi_at[1], self._splits    # slot -> (num, den) of chi_gamma
        col, sign, place = {}, 1, low   # cofaces from distinct slots never coincide
        for i in range(n):
            head, tail = divmod(b, place)
            head, b_i = divmod(head, slot)
            for x, y in (splits(b_i) if i == 0 else splits(b_i)[1:]):
                a = ((head * slot + x) * slot + y) * place + tail
                col[a] = sign * chi[a % slot][1]    # den(a), off its last slot
            sign, place = -sign, place // slot
        rest = b % low * slot       # the wrap face can cancel a slot-0 split
        for x, y in splits(b // low):
            a = x * low * slot + rest + y
            v = col.pop(a, 0) + wrap * chi[y][0]
            if v:
                col[a] = v
        return col

    def _chi(self, m: int) -> dict[int, tuple[int, int]]:
        """(num, den) of chi_gamma(a) in lowest terms, gamma packed as m, for
        every nonzero a <= gamma, packed: the product of the c_i(gamma)^(a_i),
        grown one digit of a at a time, one int product per entry."""
        gamma, table = self._digits(m), [(0, 1, 1)]
        for (num, den), swaps, g in zip(self._p, self._swaps, gamma):
            for (s_num, s_den), e in zip(swaps, gamma):     # c_i(gamma)
                num, den = num * s_num ** e, den * s_den ** e
            grown = []
            for a, a_num, a_den in table:
                a *= self._radix
                for k in range(g + 1):
                    grown.append((a + k, a_num, a_den))
                    a_num, a_den = a_num * num, a_den * den
            table = grown
        weights = {}
        for a, num, den in table[1:]:
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            weights[a] = num // g, den // g
        return weights

    # -- homology dimensions ----------------------------------------------------

    def natural_dims(self, gamma: MultiIndex, n_max: int) -> list[int]:
        """dim H_n for n = 0..n_max by rank-nullity at one multidegree, going
        up in degree so that each coboundary is cleared by the pivot rows of
        the one below: dim H_{n-1} = dim C_{n-1} - r_{n-1} - r_n.  No basis
        is kept, and none above degree n_max is built."""
        dims, rank_below, cleared = [], 0, frozenset()
        for n in range(1, n_max + 2):
            delta = self.boundary_matrix(n, gamma, cleared)
            rank = delta.rank()
            dims.append(delta.n_cols - rank_below - rank)
            rank_below, cleared = rank, delta.pivot_rows
        return dims


# ---------------------------------------------------------------------------
# comparison against the reduced complex

class ComparisonCell(namedtuple("ComparisonCell",
                                 "gamma n natural_oracle natural_predicted")):
    """One (multidegree, degree) cell; natural_oracle is None when the cell
    was skipped because a chain space exceeded the cap."""

    __slots__ = ()

    @property
    def skipped(self) -> bool:
        return self.natural_oracle is None

    @property
    def match(self) -> bool:
        return self.natural_oracle == self.natural_predicted


class ComparisonReport(namedtuple("ComparisonReport", "cells")):
    """The tuple of ComparisonCells, by multidegree and then degree."""

    __slots__ = ()

    @property
    def agreement(self) -> bool:
        """Every cell was computed and matches; a skipped cell is no match."""
        return all(cell.match for cell in self.cells)

    @property
    def skipped_cells(self) -> tuple[ComparisonCell, ...]:
        return tuple(cell for cell in self.cells if cell.skipped)

    def mismatches(self) -> tuple[ComparisonCell, ...]:
        return tuple(cell for cell in self.cells
                     if not cell.skipped and not cell.match)


def compare_with_koszul(spec: AlgebraSpec, sigma: ScalingAutomorphism,
                        n_max: int, bound: int,
                        cap: int = DEFAULT_CELL_CAP) -> ComparisonReport:
    """Cell-by-cell comparison of oracle homology dimensions with the
    grading of the homology report of the same input, up to the bound.

    Only then is symbolic input specialized, at distinct primes that divide
    no numerator or denominator in sigma.  By unique factorization a
    monomial equation among the q_ij and the p_i holds at the primes exactly
    when it holds over the symbols, so admissibility is reproduced exactly.
    A rank can only drop under specialization, so the oracle's dim at the
    primes is at least the generic dim: a 0 cell is proven acyclic for
    generic q, while dim k > 0 proves only dim <= k for generic q.  The cap
    is decided here alone: cell (gamma, n) needs the chain spaces of degrees
    0..n+1, so it is computed when none of them holds more than cap tensors
    and is reported as skipped, never guessed, otherwise.
    """
    predicted = predicted_dims(build_report(spec, sigma, bound, n_max))
    if spec.mode != NUMERIC:
        q = distinct_primes(spec.n, prod(abs(x) for c in sigma.p
                                         for x in term(c)[0].as_integer_ratio()))
        sigma = specialize_automorphism(sigma, q)
        spec = AlgebraSpec.numeric(spec.n, q)
    complex_ = HochschildComplex(spec, sigma, bound)
    cells = []
    for gamma in iter_multidegrees(spec.n, bound):
        # the largest n <= n_max whose chain spaces in degrees 0..n+1 all fit the cap
        feasible_n = next((k for k in range(n_max + 2)
                           if complex_.basis_size(k, gamma) > cap), n_max + 2) - 2
        natural = complex_.natural_dims(gamma, feasible_n)
        for n in range(n_max + 1):
            cells.append(ComparisonCell(gamma, n,
                                        natural[n] if n <= feasible_n else None,
                                        predicted.get((gamma, n), 0)))
    return ComparisonReport(tuple(cells))
