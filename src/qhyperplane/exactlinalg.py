"""Exact rank of sparse integer matrices by fraction-free column reduction.

A matrix is kept as its int columns, dicts {row: entry} without zeros, which
the constructor drops; it checks each column by its least and largest row.
Columns are reduced in index order, each a copy stripped of its content gcd,
so rank leaves the matrix as it was.
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
    """A sparse matrix of ints, stored as its nonempty columns {c: {r: v}};
    zero entries are never stored.

    rank() also sets pivot_rows, the pivot rows of the reduced matrix."""

    __slots__ = ("n_rows", "n_cols", "columns", "pivot_rows")

    def __init__(self, n_rows: int, n_cols: int,
                 columns: Mapping[int, dict[int, int]] | None = None):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.columns: dict[int, dict[int, int]] = {}
        for c, col in (columns or {}).items():
            if 0 in col.values():
                col = {r: v for r, v in col.items() if v}
            if not col:
                continue
            if not (0 <= c < n_cols and 0 <= min(col) and max(col) < n_rows):
                raise IndexError(f"column {c} reaches outside {n_rows}x{n_cols}")
            self.columns[c] = col
        self.n_rows, self.n_cols = n_rows, n_cols
        self.pivot_rows: frozenset[int] | None = None

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """The nonzero entries by (row, column), read off the columns."""
        return {(r, c): v for c, col in self.columns.items() for r, v in col.items()}

    def rank(self) -> int:
        """Exact rank by column reduction on copies; records pivot_rows."""
        reduced: dict[int, dict[int, int]] = {}
        for c in sorted(self.columns):
            col = _strip_gcd(dict(self.columns[c]))
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
    g = gcd(*col.values())
    return {r: v // g for r, v in col.items()} if g > 1 else col
