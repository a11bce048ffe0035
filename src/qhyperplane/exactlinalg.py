"""Exact rank of sparse integer matrices by fraction-free column reduction.

Entries are ints; a matrix over the rationals is first scaled by rows or
columns to one.  Columns are reduced in index order, each stripped of its
content gcd.
A column's pivot is its largest row index.  While another reduced column
already owns that pivot, the column is replaced by a*col - b*pivot_col, with
a and b first divided by their gcd and the content gcd stripped afterwards,
so entries stay exact integers of modest size.  A column that keeps a free
pivot adds one to the rank; one that reduces to zero adds nothing.

Scaling a row by a nonzero factor s moves no pivot.  Each step combines two
columns so as to cancel their entries in one row, and the ratio of those
two entries is unchanged when both are multiplied by s; so each column
reduces to a nonzero multiple of what it reduced to before, with row r
scaled by s, and every entry that was zero stays zero.

The pivot rows of the reduced matrix are what clearing needs (Chen and
Kerber, "Persistent homology computation with a twist", EuroCG 2011; Bauer,
Kerber and Reininghaus, "Clear and compress", 2014).  If delta_n
delta_{n-1} = 0, each pivot row i of the reduced delta_{n-1} carries the
largest entry of a vector v in its image, and delta_n v = 0 writes column i
of delta_n through columns of smaller index; by induction on i, the columns
of delta_n named by delta_{n-1}'s pivot rows lie in the span of the others,
so its rank is unchanged when they are left out.  Applied to coboundaries
going up in degree, the columns that are kept and still reduce to zero are
exactly the cohomology (de Silva, Morozov and Vejdemo-Johansson, "Dualities
in persistent (co)homology", Inverse Problems 27, 2011).
"""

from __future__ import annotations

from math import gcd
from typing import Mapping


class SparseExactMatrix:
    """A sparse matrix of ints; zero entries are never stored.

    rank() also sets pivot_rows, the pivot rows of the reduced matrix."""

    __slots__ = ("n_rows", "n_cols", "entries", "pivot_rows")

    def __init__(self, n_rows: int, n_cols: int,
                 entries: Mapping[tuple[int, int], int] | None = None):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        cleaned: dict[tuple[int, int], int] = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise IndexError(f"entry ({r},{c}) outside {n_rows}x{n_cols}")
            if v:
                cleaned[r, c] = v
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = cleaned
        self.pivot_rows: frozenset[int] | None = None

    def rank(self) -> int:
        """Exact rank by column reduction; records pivot_rows."""
        columns: dict[int, dict[int, int]] = {}
        for (r, c), v in self.entries.items():
            columns.setdefault(c, {})[r] = v
        reduced: dict[int, dict[int, int]] = {}
        for c in sorted(columns):
            col = _strip_gcd(columns[c])
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


def _strip_gcd(col: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {r: v // g for r, v in col.items()}
    return col
