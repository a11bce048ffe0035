"""Exact rank of sparse rational matrices by fraction-free column reduction.

Columns are reduced in index order, each scaled once to coprime integers.
A column's pivot is its largest row index.  While another reduced column
already owns that pivot, the column is replaced by a*col - b*pivot_col, with
a and b first divided by their gcd and the content gcd stripped afterwards,
so entries stay exact integers of modest size.  A column that keeps a free
pivot adds one to the rank; one that reduces to zero adds nothing.

The pivot rows of the reduced matrix are what clearing needs (Chen and
Kerber, "Persistent homology computation with a twist", EuroCG 2011; Bauer,
Kerber and Reininghaus, "Clear and compress", 2014).  If D B = 0, each pivot
row i of the reduced B carries the largest entry of a vector v in the image
of B, and D v = 0 writes column i of D through columns of smaller index; by
induction on i, the columns of D named by B's pivot rows lie in the span of
the others, so D's rank is unchanged when they are left out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping


class SparseExactMatrix:
    """A sparse matrix over the rationals; zero entries are never stored.

    rank() also sets pivot_rows, the pivot rows of the reduced matrix."""

    __slots__ = ("n_rows", "n_cols", "entries", "pivot_rows")

    def __init__(self, n_rows: int, n_cols: int,
                 entries: Mapping[tuple[int, int], Fraction] = ()):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        cleaned: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in dict(entries).items():
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise IndexError(f"entry ({r},{c}) outside {n_rows}x{n_cols}")
            v = Fraction(v)
            if v != 0:
                cleaned[(r, c)] = v
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = cleaned
        self.pivot_rows: frozenset[int] | None = None

    def rank(self) -> int:
        """Exact rank by column reduction; records pivot_rows."""
        columns: dict[int, dict[int, Fraction]] = {}
        for (r, c), v in self.entries.items():
            columns.setdefault(c, {})[r] = v
        reduced: dict[int, dict[int, int]] = {}
        for c in sorted(columns):
            col = _integerize(columns[c])
            while col:
                low = max(col)
                pivot_col = reduced.get(low)
                if pivot_col is None:
                    reduced[low] = col
                    break
                a, b = pivot_col[low], col[low]
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    col = {r: a * v for r, v in col.items()}
                for r, v in pivot_col.items():
                    nv = col.get(r, 0) - b * v
                    if nv:
                        col[r] = nv
                    else:
                        del col[r]
                col = _strip_gcd(col)
        self.pivot_rows = frozenset(reduced)
        return len(reduced)


def _integerize(col: dict[int, Fraction]) -> dict[int, int]:
    """Scale a column to coprime integers (rank is scaling-invariant)."""
    lcm = 1
    for v in col.values():
        d = v.denominator
        lcm = lcm // gcd(lcm, d) * d
    return _strip_gcd({r: v.numerator * (lcm // v.denominator) for r, v in col.items()})


def _strip_gcd(col: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {r: v // g for r, v in col.items()}
    return col
