"""Exact sparse linear algebra over the rationals.

Only what homology ranks need: rank, plus matrix products for
boundary-composition checks.  Elimination is exact throughout; rows are
integerised once (clearing denominators) and kept gcd-reduced so entry
growth stays tame at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping


class SparseExactMatrix:
    """A sparse matrix over the rationals; zero entries are never stored."""

    __slots__ = ("n_rows", "n_cols", "entries")

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

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "SparseExactMatrix":
        rows = [list(r) for r in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        entries = {(i, j): Fraction(v)
                   for i, row in enumerate(rows)
                   for j, v in enumerate(row) if v}
        return cls(n_rows, n_cols, entries)

    def row_dicts(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.n_rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def matmul(self, other: "SparseExactMatrix") -> "SparseExactMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimensions disagree")
        other_rows = other.row_dicts()
        out: dict[tuple[int, int], Fraction] = {}
        for (r, k), v in self.entries.items():
            for c, w in other_rows[k].items():
                key = (r, c)
                out[key] = out.get(key, Fraction(0)) + v * w
        return SparseExactMatrix(self.n_rows, other.n_cols, out)

    def is_zero(self) -> bool:
        return not self.entries

    def rank(self) -> int:
        """Exact rank by sparse elimination.

        Within a column the pivot is the row whose entry has the smallest bit
        length, to contain coefficient blowup.
        """
        rows = []
        for tag, row in enumerate(self.row_dicts()):
            if row:
                rows.append((tag, _integerize(row)))
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


def _integerize(row: dict[int, Fraction]) -> dict[int, int]:
    """Scale a row to coprime integers (rank is scaling-invariant)."""
    lcm = 1
    for v in row.values():
        d = v.denominator
        lcm = lcm // gcd(lcm, d) * d
    return _strip_gcd({c: int(v * lcm) for c, v in row.items()})


def _strip_gcd(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row
