"""Exact rank of sparse integer matrices by fraction-free column reduction.

Columns are given as labels and reduced in the order given, each built
afresh from its label and stripped of its content gcd, so rank leaves the
matrix as it was.  A column's pivot is its largest row.  While another
reduced column owns that pivot, the column becomes a*col - b*pivot_col, a
and b divided by their gcd and the content gcd stripped after, so entries
stay exact ints of modest size.  A column that keeps a free pivot adds one
to the rank, one that reduces to zero nothing.  Scaling a row by a nonzero
factor moves no pivot: each step cancels two entries of one row, whose
ratio the factor keeps, so every zero stays zero.

The pivot rows of the reduced matrix are what clearing needs (Chen and
Kerber, "Persistent homology computation with a twist", EuroCG 2011; Bauer,
Kerber and Reininghaus, "Clear and compress", 2014).  Let the columns of
delta_n be labelled, in ascending order, by the rows of delta_{n-1}.  If
delta_n delta_{n-1} = 0, each pivot row i of the reduced delta_{n-1}
carries the largest entry of a vector v in its image, and delta_n v = 0
writes column i of delta_n through columns of smaller label; by induction
on i, the columns of delta_n labelled by delta_{n-1}'s pivot rows lie in
the span of the others, so leaving them out keeps its rank.  Going up in
degree, the kept columns that still reduce to zero are exactly the
cohomology (de Silva, Morozov and Vejdemo-Johansson, Inverse Problems 27,
2011), and nearly every other one keeps its first-sight pivot, its largest
row before any reduction.  Where that pivot is known without the column and
is free, the column would be stored as it is: its label is recorded, and
the column is built from it only when a later column first reduces against
it, the "emergent pair" of Ripser (U. Bauer, J. Appl. Comput. Topol. 5,
2021).
"""

from __future__ import annotations

from math import gcd


class SparseExactMatrix:
    """A sparse matrix of ints as the list columns of column labels, build(c)
    being column c as a dict {r: v} without zeros; pivots {c: r} holds
    largest rows known unbuilt.  rank() sets pivot_rows."""

    __slots__ = ("n_cols", "columns", "pivots", "build", "pivot_rows")

    def __init__(self, n_cols: int, columns: list, pivots: dict, build):
        self.n_cols, self.columns, self.pivots, self.build = n_cols, columns, pivots, build
        self.pivot_rows: frozenset[int] | None = None

    @property
    def entries(self) -> dict[tuple[int, object], int]:
        """The nonzero entries by (row, column label), every column built."""
        return {(r, c): v for c in self.columns for r, v in self.build(c).items()}

    def rank(self) -> int:
        """Exact rank by column reduction on copies; records pivot_rows."""
        build, pivots = self.build, self.pivots
        reduced: dict[int, dict[int, int]] = {}     # or a recorded column's label
        for c in self.columns:
            low = pivots.get(c)
            if low is not None and low not in reduced:
                reduced[low] = c
                continue
            col = _strip_gcd(build(c))
            while col:
                low = max(col)
                pivot_col = reduced.get(low)
                if pivot_col is None:
                    reduced[low] = col
                    break
                if type(pivot_col) is not dict:
                    pivot_col = reduced[low] = _strip_gcd(build(pivot_col))
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
