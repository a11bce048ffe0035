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
m(a_i, a_{i+1}), and by associativity W(a) = m(a_i, a_{i+1}) W(face), so in
the basis f it is (-1)^i, a plain integer; two faces that coincide still add
up.  The wrap-around face b = (a_n + a_0, a_1, ..., a_{n-1}) carries
p^{a_n} m(a_n, a_0).  Writing x^{a_0} ... x^{a_{n-1}} = V x^{gamma-a_n}, one
has W(a) = V m(gamma-a_n, a_n) and m(a_n, a_0) W(b) = V m(a_n, gamma-a_n), so
in the basis f it is (-1)^n chi_gamma(a_n), where

    chi_gamma(a) = p^a m(a, gamma-a) / m(gamma-a, a)

depends on the last slot alone.  As m(b, c) = prod_{j<k} s_jk^(b_k c_j), one
swap scalar x_k x_j = s_jk x_j x_k per inversion, chi_gamma(a) = p^a prod_{j<k}
s_jk^(a_k r_j - r_k a_j) with r = gamma - a, made in ints split by split from
the p_i and the s_jk that monomial_product gives, never from the Koszul
defects: chi_gamma(e_i) = 1 - delta_i(gamma) is what the comparison tests.
The change of basis is diagonal, so every rank is that of the plain boundary.

Within a multidegree the ranks go up in degree, on the coboundary d_n
transposed: its column for a tensor b of degree n-1, a dict {row: int}, holds
the cofaces of b on the rows they pack to.  Each splits one slot of b in two,
slot i as (x, y) with entry (-1)^i, or b_0 as x + y into (x, b_1, ...,
b_{n-1}, y) with entry (-1)^n chi_gamma(y).  Row a is scaled by den(a), the
denominator of chi_gamma(a_n), which moves no pivot (see exactlinalg), so
every entry is an int.  Each coboundary is assembled with clearing: the
columns of the tensors that are pivot rows of the reduced coboundary one
degree below are left out.  As d_n^T d_{n-1}^T = 0 they lie in the span of
the columns kept, so every rank stays exact, and the kept columns that reduce
to zero number dim H_{n-1}; going down, most of the kernel of the uncleared
d_{n_max+1} would reduce to zero.

A slot is packed into the int sum of a_i R^(N-i), R = bound + 1, and a tensor
(a_0, ..., a_k) into the int sum of a_i S^(k-i), S = R^N.  With no coordinate
past the bound each slot is below S, so int order is lex order on slots and
tensors alike, and y = m - x is one subtraction; a gamma past the bound is
refused, never aliased.  A tensor's int is its row, so no row basis is built.
Divisors are enumerated once, in a split table per complex of the pairs
(x, y) with x + y = m and y nonunit; only it and chi decode digits.  Tails,
hence bases, recurse through it, and the chi weights of gamma are read off
its splits; tails and splits are kept for later multidegrees, chi weights are
not.  Which cells fit the basis cap is decided in compare_with_koszul alone.

Rank computations need decidable zero, so this module insists on numeric
mode; symbolic input is specialized at distinct primes that divide no
rational in sigma, which is faithful to the generic regime: by unique
factorization a monomial equation among the q_ij and the p_i then holds at
the primes exactly when it holds over the symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
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
        self._chi_at: tuple[MultiIndex, dict[int, tuple[int, int]]] = ((), {})
        self._p = [c.as_integer_ratio() for c in sigma.p]

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
        """d_n transposed at one multidegree in the rescaled bases f: column c
        holds the cofaces a of the c-th tensor b of basis(n-1, gamma), unless
        b is in cleared, each on the row a packs to in [0, S^(n+1)) and
        scaled by den(a) so that every entry is an int."""
        slot = self._radix ** self.spec.n     # S: every packed slot is below it
        if n < 1:
            return SparseExactMatrix(slot, 0)
        if self._chi_at[0] != gamma:
            self._chi_at = gamma, self._chi(gamma)
        chi = self._chi_at[1]       # slot -> (num, den) of chi_gamma, for one gamma
        splits, wrap, low = self._splits, -1 if n & 1 else 1, slot ** (n - 1)
        columns, cols = {}, self.basis(n - 1, gamma)
        for c, b in enumerate(cols):
            if b in cleared:
                continue
            col, sign, place = {}, 1, low   # cofaces from distinct slots never coincide
            for i in range(n):
                head, tail = divmod(b, place)
                head, b_i = divmod(head, slot)
                for x, y in (splits(b_i) if i == 0 else splits(b_i)[1:]):
                    a = ((head * slot + x) * slot + y) * place + tail
                    col[a] = sign * chi[a % slot][1]    # den(a), off its last slot
                sign, place = -sign, place // slot
            rest = b % low * slot
            for x, y in splits(b // low):
                a = x * low * slot + rest + y
                col[a] = col.get(a, 0) + wrap * chi[y][0]
            columns[c] = col
        return SparseExactMatrix(slot ** (n + 1), len(cols), columns)

    def _chi(self, gamma: MultiIndex) -> dict[int, tuple[int, int]]:
        """(num, den) of chi_gamma(a) in lowest terms for the last slot a of
        each split (r, a) of gamma, from the swap scalars s_jk of its support."""
        n, inside = self.spec.n, [i for i, g in enumerate(gamma, start=1) if g]
        swaps = [(j - 1, k - 1, *monomial_product(self.spec, unit(n, k), unit(n, j))[0]
                  .as_integer_ratio()) for j, k in combinations(inside, 2)]
        weights = {}
        for x, y in self._splits(self._pack(gamma)):
            r, a = self._digits(x), self._digits(y)
            num = den = 1
            for (p_num, p_den), e in zip(self._p, a):
                num, den = num * p_num ** e, den * p_den ** e
            for j, k, s_num, s_den in swaps:
                e = a[k] * r[j] - r[k] * a[j]
                up, down = (s_num, s_den) if e > 0 else (s_den, s_num)
                num, den = num * up ** abs(e), den * down ** abs(e)
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            weights[y] = num // g, den // g
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

@dataclass(frozen=True)
class ComparisonCell:
    """One (multidegree, degree) cell; natural_oracle is None when the cell
    was skipped because a chain space exceeded the cap."""

    gamma: MultiIndex
    n: int
    natural_oracle: int | None
    natural_predicted: int

    @property
    def skipped(self) -> bool:
        return self.natural_oracle is None

    @property
    def match(self) -> bool:
        return self.natural_oracle == self.natural_predicted


@dataclass(frozen=True)
class ComparisonReport:
    cells: tuple[ComparisonCell, ...]

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
    no numerator or denominator in sigma.  The cap is decided here alone:
    cell (gamma, n) needs the bases of degrees 0..n+1, so it is computed
    when none of them holds more than cap tensors and is reported as
    skipped, never guessed, otherwise.
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
        # the largest n <= n_max whose bases in degrees 0..n+1 all fit the cap
        feasible_n = next((k for k in range(n_max + 2)
                           if complex_.basis_size(k, gamma) > cap), n_max + 2) - 2
        natural = complex_.natural_dims(gamma, feasible_n)
        for n in range(n_max + 1):
            cells.append(ComparisonCell(gamma, n,
                                        natural[n] if n <= feasible_n else None,
                                        predicted.get((gamma, n), 0)))
    return ComparisonReport(tuple(cells))
