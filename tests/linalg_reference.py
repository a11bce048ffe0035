"""Test-only helpers for SparseExactMatrix: construction from dense rows,
products, and the row-elimination rank that column reduction replaced,
kept as a reference to compare against."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from qhyperplane.exactlinalg import SparseExactMatrix, _integerize, _strip_gcd


def from_rows(rows: Iterable[Iterable]) -> SparseExactMatrix:
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    entries = {(i, j): Fraction(v)
               for i, row in enumerate(rows)
               for j, v in enumerate(row) if v}
    return SparseExactMatrix(len(rows), n_cols, entries)


def row_dicts(m: SparseExactMatrix) -> list[dict[int, Fraction]]:
    rows: list[dict[int, Fraction]] = [dict() for _ in range(m.n_rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    return rows


def matmul(a: SparseExactMatrix, b: SparseExactMatrix) -> SparseExactMatrix:
    if a.n_cols != b.n_rows:
        raise ValueError("inner dimensions disagree")
    b_rows = row_dicts(b)
    out: dict[tuple[int, int], Fraction] = {}
    for (r, k), v in a.entries.items():
        for c, w in b_rows[k].items():
            out[(r, c)] = out.get((r, c), Fraction(0)) + v * w
    return SparseExactMatrix(a.n_rows, b.n_cols, out)


def reference_rank(m: SparseExactMatrix) -> int:
    """Exact rank by sparse row elimination.

    Within a column the pivot is the row whose entry has the smallest bit
    length, to contain coefficient blowup.
    """
    rows = [(tag, _integerize(row)) for tag, row in enumerate(row_dicts(m)) if row]
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
