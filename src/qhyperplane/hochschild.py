"""Ground truth: the normalized twisted Hochschild complex, truncated by
multidegree.

Chain spaces in degree n are spanned by (n+1)-tuples of monomials with no
unit in slots 1..n; the boundary multiplies adjacent slots and wraps the
last slot around through the twist, sigma acting before the wrap-around
product.  A product of nonunit monomials is never the unit, so this span is
a subcomplex of the full bar complex, isomorphic to its quotient by the
degenerate tensors and hence quasi-isomorphic to it for any bimodule, twisted
ones included (Loday, Cyclic Homology, 1.1.14-1.1.15); it vanishes above the
total degree.  Faces preserve the multidegree, so each multidegree gives a
finite complex with exact homology dimensions, compared cell by cell with
the count from the reduced Koszul complex.

Within a multidegree the ranks go down in degree, from d_{n_max+1} on, so
that each d_n is assembled with clearing: its columns that are pivot rows
of the reduced d_{n+1} are left out.  As d_n d_{n+1} = 0 they lie in the
span of the columns kept (see exactlinalg), so every rank stays exact.

Rank computations need decidable zero, so this module insists on numeric
mode; symbolic input is specialized at distinct primes, which is faithful to
the generic regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod
from typing import Iterator

from .exactlinalg import SparseExactMatrix
from .homology import predicted_dims
from .hyperplane import (AlgebraSpec, MultiIndex, NUMERIC, ScalingAutomorphism,
                         apply_sigma, iter_multidegrees,
                         monomial_product, specialize_automorphism)

Tensor = tuple[MultiIndex, ...]

DEFAULT_CELL_CAP = 20000


class CellTooLarge(Exception):
    """A chain space exceeded the configured basis cap."""


class HochschildComplex:
    """Twisted Hochschild chains of one numeric algebra and scaling twist."""

    def __init__(self, spec: AlgebraSpec, sigma: ScalingAutomorphism,
                 cap: int = DEFAULT_CELL_CAP):
        if spec.mode != NUMERIC or not all(isinstance(c, Fraction) for c in sigma.p):
            raise ValueError("the oracle needs numeric parameters and twist; "
                             "specialize symbolic input at distinct primes first")
        if sigma.n != spec.n:
            raise ValueError("automorphism size disagrees with the algebra")
        self.spec = spec
        self.sigma = sigma
        self.cap = cap
        self._basis_cache: dict[tuple[int, MultiIndex], list[Tensor]] = {}

    # -- bases ----------------------------------------------------------------

    def basis_size(self, n: int, gamma: MultiIndex) -> int:
        """len(basis(n, gamma)), by inclusion-exclusion over the k slots
        among 1..n forced to be the unit."""
        return sum((-1) ** k * comb(n, k) * prod(comb(g + n - k, n - k) for g in gamma)
                   for k in range(n + 1))

    def basis(self, n: int, gamma: MultiIndex) -> list[Tensor]:
        """Basis tensors of degree n and multidegree gamma, lexicographic."""
        key = (n, gamma)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        if self.basis_size(n, gamma) > self.cap:
            raise CellTooLarge(f"basis of C_{n}{gamma} exceeds cap {self.cap}")
        tensors = [(head,) + tail
                   for head in product(*(range(g + 1) for g in gamma))
                   for tail in _tensors(_minus(gamma, head), n)]
        self._basis_cache[key] = tensors
        return tensors

    # -- the boundary -----------------------------------------------------------

    def boundary_faces(self, tensor: Tensor) -> list[tuple[Tensor, Fraction]]:
        """Faces of one basis tensor with their exact coefficients."""
        n = len(tensor) - 1
        if n < 1:
            return []
        spec = self.spec
        faces = []
        sign = 1
        for i in range(n):
            coeff, merged = monomial_product(spec, tensor[i], tensor[i + 1])
            faces.append((tensor[:i] + (merged,) + tensor[i + 2:],
                          sign * coeff))
            sign = -sign
        twist = apply_sigma(self.sigma, tensor[n])
        coeff, merged = monomial_product(spec, tensor[n], tensor[0])
        faces.append(((merged,) + tensor[1:n], sign * twist * coeff))
        return faces

    def boundary_matrix(self, n: int, gamma: MultiIndex,
                        cleared: frozenset[int] = frozenset()) -> SparseExactMatrix:
        """Matrix of the boundary from degree n to degree n-1 at one
        multidegree, in the lexicographic bases; the columns in cleared are
        left zero."""
        if n < 1:
            return SparseExactMatrix(0, len(self.basis(0, gamma)))
        rows = {t: r for r, t in enumerate(self.basis(n - 1, gamma))}
        cols = self.basis(n, gamma)
        entries: dict[tuple[int, int], Fraction] = {}
        for c, tensor in enumerate(cols):
            if c in cleared:
                continue
            for face, coeff in self.boundary_faces(tensor):
                key = (rows[face], c)
                merged = entries.get(key, Fraction(0)) + coeff
                if merged:
                    entries[key] = merged
                else:
                    entries.pop(key, None)
        return SparseExactMatrix(len(rows), len(cols), entries)

    # -- homology dimensions ----------------------------------------------------

    def natural_dims(self, gamma: MultiIndex, n_max: int) -> list[int]:
        """dim H_n for n = 0..n_max by rank-nullity at one multidegree, going
        down in degree so that each d_n is cleared by the pivots of d_{n+1}."""
        if n_max < 0:
            return []
        dims, rank_above, cleared = [], 0, frozenset()
        for n in range(n_max + 1, -1, -1):
            d_n = self.boundary_matrix(n, gamma, cleared)
            rank = d_n.rank()
            dims.append(len(self.basis(n, gamma)) - rank - rank_above)
            rank_above, cleared = rank, d_n.pivot_rows
        return dims[:0:-1]      # ascending, without degree n_max + 1


def _tensors(gamma: MultiIndex, slots: int) -> Iterator[Tensor]:
    """Tuples of `slots` nonunit monomials with total gamma, lexicographic."""
    if slots == 0:
        if not any(gamma):
            yield ()
        return
    for head in product(*(range(g + 1) for g in gamma)):
        if any(head):
            for tail in _tensors(_minus(gamma, head), slots - 1):
                yield (head,) + tail


def _minus(gamma: MultiIndex, head: MultiIndex) -> MultiIndex:
    return tuple(g - h for g, h in zip(gamma, head))


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

    def to_dict(self) -> dict:
        return {"gamma": list(self.gamma), "n": self.n,
                "natural_oracle": self.natural_oracle,
                "natural_predicted": self.natural_predicted,
                "match": self.match, "skipped": self.skipped}


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
    """Cell-by-cell comparison of oracle homology dimensions with the counts
    predicted by the reduced complex, over all multidegrees up to the bound.

    Symbolic input is specialized at distinct primes first.  Cells whose
    chain spaces exceed the cap are reported as skipped, never guessed.
    """
    if spec.mode != NUMERIC:
        assignment = AlgebraSpec.with_distinct_primes(spec.n).assignment
        sigma = specialize_automorphism(sigma, assignment)
        spec = AlgebraSpec.numeric(spec.n, assignment)
    complex_ = HochschildComplex(spec, sigma, cap)
    cells = []
    for gamma in iter_multidegrees(spec.n, bound):
        feasible_n = -1
        for n in range(n_max + 1):
            if all(complex_.basis_size(k, gamma) <= cap for k in range(n + 2)):
                feasible_n = n
            else:
                break
        natural = complex_.natural_dims(gamma, feasible_n)
        for n in range(n_max + 1):
            cells.append(ComparisonCell(gamma, n,
                                        natural[n] if n <= feasible_n else None,
                                        predicted_dims(spec, sigma, gamma, n)))
    return ComparisonReport(tuple(cells))
