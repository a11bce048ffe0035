"""Test-only helpers for SparseExactMatrix: Shaped, a matrix with its own row
count whose columns are labelled by position and built as copies of stored
dicts; construction from entries or dense rows,
which drops zeros and checks every entry's row and column against the shape,
scaling a rational matrix to ints, products, the row-elimination rank that
column reduction replaced, and the eager column reduction that builds every
column, kept as references to compare against."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from qhyperplane.exactlinalg import SparseExactMatrix, _strip_gcd


class Shaped(SparseExactMatrix):
    """A matrix of n_rows rows whose columns, positions 0..n_cols-1 without the
    empty ones, are stored dicts {r: v}; build gives a copy, so that nothing
    rank does to a column reaches the stored one."""

    __slots__ = ("n_rows",)

    def __init__(self, n_rows: int, n_cols: int, columns: dict[int, dict[int, int]]):
        super().__init__(n_cols, sorted(columns), {}, lambda c: dict(columns[c]))
        self.n_rows = n_rows


def integerize(vector: dict[int, Fraction | int]) -> dict[int, int]:
    """Scale a sparse rational vector by the lcm of its denominators."""
    lcm = 1
    for v in vector.values():
        lcm = lcm // gcd(lcm, v.denominator) * v.denominator
    return {k: int(v * lcm) for k, v in vector.items()}


def from_entries(n_rows: int, n_cols: int,
                 entries: dict[tuple[int, int], Fraction | int]) -> Shaped:
    """A matrix from its entries by (row, column), grouped into columns."""
    columns: dict[int, dict[int, Fraction | int]] = {}
    for (r, c), v in entries.items():
        columns.setdefault(c, {})[r] = v
    return checked(n_rows, n_cols, columns)


def checked(n_rows: int, n_cols: int,
            columns: dict[int, dict[int, Fraction | int]]) -> Shaped:
    """A matrix of the given columns without their zeros and empty columns;
    a negative shape raises ValueError, an entry outside it IndexError."""
    if n_rows < 0 or n_cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    kept = {}
    for c, col in columns.items():
        col = {r: v for r, v in col.items() if v}
        if col and not (0 <= c < n_cols and 0 <= min(col) and max(col) < n_rows):
            raise IndexError(f"column {c} reaches outside {n_rows}x{n_cols}")
        if col:
            kept[c] = col
    return Shaped(n_rows, n_cols, kept)


def integerized(m: Shaped) -> Shaped:
    """The matrix with each column built and scaled to integers: the same
    rank and the same pivot rows, with int entries that rank accepts."""
    return checked(m.n_rows, m.n_cols, {c: integerize(m.build(c)) for c in m.columns})


def from_rows(rows: Iterable[Iterable]) -> Shaped:
    """A matrix from dense rational rows, its columns scaled to ints."""
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    entries = {(i, j): Fraction(v)
               for i, row in enumerate(rows)
               for j, v in enumerate(row) if v}
    return integerized(from_entries(len(rows), n_cols, entries))


def row_dicts(m: Shaped) -> list[dict[int, Fraction]]:
    rows: list[dict[int, Fraction]] = [dict() for _ in range(m.n_rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    return rows


def matmul(a: Shaped, b: Shaped) -> Shaped:
    if a.n_cols != b.n_rows:
        raise ValueError("inner dimensions disagree")
    b_rows = row_dicts(b)
    out: dict[tuple[int, int], Fraction] = {}
    for (r, k), v in a.entries.items():
        for c, w in b_rows[k].items():
            out[(r, c)] = out.get((r, c), Fraction(0)) + v * w
    return from_entries(a.n_rows, b.n_cols, out)


def reference_rank(m: Shaped) -> int:
    """Exact rank by sparse row elimination.

    Within a column the pivot is the row whose entry has the smallest bit
    length, to contain coefficient blowup.
    """
    rows = [(tag, _strip_gcd(integerize(row))) for tag, row in enumerate(row_dicts(m)) if row]
    rank = 0
    while rows:
        col = min(min(row) for _, row in rows)
        carriers = [entry for entry in rows if col in entry[1]]
        piv = min(carriers, key=lambda entry: (abs(entry[1][col]).bit_length(),
                                               entry[0]))
        rank += 1
        rows.remove(piv)
        prow = piv[1]
        a = prow[col]
        next_rows = []
        for tag, row in rows:
            b = row.get(col, 0)
            if b:
                # row <- a*row - b*pivot_row, then strip the content gcd
                combined: dict[int, int] = {}
                for c in row.keys() | prow.keys():
                    if c == col:
                        continue
                    nv = a * row.get(c, 0) - b * prow.get(c, 0)
                    if nv:
                        combined[c] = nv
                row = _strip_gcd(combined)
            if row:
                next_rows.append((tag, row))
        rows = next_rows
    return rank


def eager_rank(m: SparseExactMatrix) -> tuple[int, frozenset[int]]:
    """Rank and pivot rows by column reduction, in the order of m's column
    labels, with every column built first and no pivot known beforehand: the
    reduction the lazy one must equal."""
    reduced: dict[int, dict[int, int]] = {}
    for c in m.columns:
        col = _strip_gcd(m.build(c))
        while col:
            low = max(col)
            pivot_col = reduced.get(low)
            if pivot_col is None:
                reduced[low] = col
                break
            a, b = pivot_col[low], col[low]
            g = gcd(a, b)
            a, b = a // g, b // g
            col = {r: a * v for r, v in col.items()}
            for r, v in pivot_col.items():
                nv = col.get(r, 0) - b * v
                if nv:
                    col[r] = nv
                else:
                    del col[r]
            col = _strip_gcd(col)
    return len(reduced), frozenset(reduced)
