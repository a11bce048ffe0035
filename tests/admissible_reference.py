"""Test-only admissible-set solver that visits the supports by size, kept as a
reference for the program's depth-first walk.

Every support S of 1..N gets its own exponent rows, those of the generators
in S over the columns of S, and its own integer Gauss-Jordan elimination.  A
row that reads 0 = nonzero before any elimination marks S hopeless.  Once
completeness is settled false, a support larger than the bound can add no
member, so the visit stops there.  Each consistent support is solved by the
program's own _solve_support, so the two solvers differ only in how they
reach the reduced row echelon form of each support.  The coprime base the
program used to build, with a scan of the whole base for every value, is
kept here too, as the reference for the one that tests the base's product
first.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import gcd

from qhyperplane.homology import (AdmissibleSet, _coprime_base, _eliminate, _exponents,
                                  _solve_support, _sort_degrees)
from qhyperplane.hyperplane import AlgebraSpec, ScalingAutomorphism
from qhyperplane.qscalar import term


def reference_coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product, by
    gcd splitting, each value scanning the whole base for a shared factor."""
    base: list[int] = []
    pending = [x for x in values if x > 1]
    while pending:
        x = pending.pop()
        b = next((b for b in base if gcd(x, b) > 1), None)
        if b is None:
            base.append(x)
        elif b != x:
            base.remove(b)
            g = gcd(x, b)
            pending += [y for y in (g, b // g, x // g) if y > 1]
    return base


def reference_admissible(spec: AlgebraSpec, sigma: ScalingAutomorphism,
                         bound: int) -> AdmissibleSet:
    """Admissible set up to the bound, one fresh elimination per support."""
    q = {ki: spec.q_power(*ki) for ki in permutations(range(1, spec.n + 1), 2)}
    base = _coprime_base(abs(x) for c in (*q.values(), *sigma.p)
                         for x in term(c)[0].as_integer_ratio())
    q_vec = {ki: _exponents(c, base) for ki, c in q.items()}
    p_vec = [_exponents(c, base) for c in sigma.p]
    members: list = []
    complete = True
    supports = (s for size in range(spec.n + 1)
                for s in combinations(range(1, spec.n + 1), size))
    for s in supports:
        if len(s) > bound and not complete:
            break       # members here have degree >= |s| > bound
        rows = []
        for i in s:
            for coord in set(p_vec[i - 1]).union(*(q_vec[k, i] for k in s if k != i)):
                rows.append([q_vec[k, i].get(coord, 0) if k != i else 0 for k in s]
                            + [p_vec[i - 1].get(coord, 0)])
        if any(row[-1] and not any(row[:-1]) for row in rows):
            continue    # 0 = nonzero: no multidegree has this support
        pivots = gauss_jordan(rows, len(s))
        if pivots is not None:
            complete &= _solve_support(spec, sigma, s, pivots, bound, members)
    return AdmissibleSet(_sort_degrees(members), complete)


def gauss_jordan(rows: list[list[int]], width: int) -> list[tuple[int, list[int]]] | None:
    """Integer reduced row echelon form of augmented rows with width
    coefficient columns: (pivot column, row) pairs, each pivot positive and
    alone in its column, or None when the system is inconsistent."""
    rows = [r for r in rows if any(r)]
    pivots: list[tuple[int, list[int]]] = []
    for col in range(width):
        pick = next((r for r in rows if r[col]), None)
        if pick is None:
            continue
        rows.remove(pick)
        if pick[col] < 0:
            pick = [-x for x in pick]
        rows = [r for r in (_eliminate(r, pick, col) for r in rows) if any(r)]
        pivots = [(c, _eliminate(r, pick, col)) for c, r in pivots] + [(col, pick)]
    return None if rows else pivots
