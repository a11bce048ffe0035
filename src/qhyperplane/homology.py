"""Twisted homology bases, Betti numbers and the admissible-set solver.

The homology of the reduced complex is spanned by the symbols
x^alpha (x) x^beta whose multidegree alpha+beta is admissible for sigma, so
everything reduces to enumerating admissible multidegrees up to a total
degree bound.  One exact solver does this for every mode and twist.  On a
support S, gamma is admissible when prod_{k in S, k != i} q_ki^{gamma(k)}
= p_i for each i in S; over a coprime base of the rationals involved (and
the symbols q_ij) this is an integer linear system blind only to signs,
which the membership predicate then decides.  Supports are visited by size;
once completeness is settled false, a support larger than the bound can add
no member (each has degree at least its size), so the visit stops there.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd, inf, lcm

from .hyperplane import (AlgebraSpec, MultiIndex, ScalingAutomorphism,
                         canonical_automorphism, degree, exterior_under,
                         is_admissible, iter_multidegrees, sub_index, support)
from .qscalar import Scalar, all_pairs, term


def _sort_degrees(members: Iterable[MultiIndex]) -> tuple[MultiIndex, ...]:
    return tuple(sorted(set(members), key=lambda g: (degree(g), g)))


class AdmissibleSet(namedtuple("AdmissibleSet", "members complete")):
    """Admissible multidegrees up to a bound, members a tuple of them.

    complete means the listed members are provably all of them, not just all
    below the bound.  The solver decides it on every support with at most
    one free variable and never claims it otherwise.
    """

    __slots__ = ()


def scan_admissible(spec: AlgebraSpec, sigma: ScalingAutomorphism,
                    bound: int) -> tuple[MultiIndex, ...]:
    """Brute-force enumeration through the membership predicate."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return _sort_degrees(g for g in iter_multidegrees(spec.n, bound)
                         if is_admissible(spec, sigma, g))


def enumerate_admissible(spec: AlgebraSpec, sigma: ScalingAutomorphism,
                         bound: int) -> AdmissibleSet:
    """Admissible set up to the bound, solved one support at a time."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    q = {ki: spec.q_power(*ki) for ki in permutations(range(1, spec.n + 1), 2)}
    base = _coprime_base(abs(x) for c in (*q.values(), *sigma.p)
                         for x in term(c)[0].as_integer_ratio())
    q_vec = {ki: _exponents(c, base) for ki, c in q.items()}
    p_vec = [_exponents(c, base) for c in sigma.p]
    members: list[MultiIndex] = []
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
        pivots = _gauss_jordan(rows, len(s))
        if pivots is not None:
            complete &= _solve_support(spec, sigma, s, pivots, bound, members)
    return AdmissibleSet(_sort_degrees(members), complete)


def one_parameter_admissible(n: int, bound: int) -> AdmissibleSet:
    """Admissible set of the one-parameter hyperplane x_i x_j = 2 x_j x_i for
    i > j, that is q_ij = 1/2 for i < j, with the canonical twist."""
    spec = AlgebraSpec.numeric(n, dict.fromkeys(all_pairs(n), Fraction(1, 2)))
    return enumerate_admissible(spec, canonical_automorphism(spec), bound)


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product,
    built by gcd splitting, so no value is ever factored."""
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


def _exponents(c: Scalar, base: list[int]) -> dict:
    """Exponent vector of |c|: base element or symbol pair -> exponent."""
    scalar, mono = term(c)
    vec = dict(mono)
    num, denom = scalar.as_integer_ratio()
    for b in base:
        e = 0
        while num % b == 0:
            num, e = num // b, e + 1
        while denom % b == 0:
            denom, e = denom // b, e - 1
        if e:
            vec[b] = e
    return vec


def _gauss_jordan(rows: list[list[int]], width: int) -> list[tuple[int, list[int]]] | None:
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


def _eliminate(row: list[int], pivot: list[int], col: int) -> list[int]:
    """row minus the multiple of pivot that clears column col, gcd removed."""
    if not row[col]:
        return row
    out = [pivot[col] * x - row[col] * y for x, y in zip(row, pivot)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _solve_support(spec: AlgebraSpec, sigma: ScalingAutomorphism, s: tuple[int, ...],
                   pivots: list[tuple[int, list[int]]], bound: int,
                   members: list[MultiIndex]) -> bool:
    """Append the admissible multidegrees with support s up to the bound to
    members; False unless it is proven that none lies beyond the bound."""
    pivot_cols = {col for col, _ in pivots}
    free = [v for v in range(len(s)) if v not in pivot_cols]

    def solution(ts: tuple[int, ...]) -> MultiIndex | None:
        """The solution at free values ts, if integral and positive on s."""
        gamma = [0] * spec.n
        for v, x in zip(free, ts):
            gamma[s[v] - 1] = x
        for col, row in pivots:
            x, r = divmod(row[-1] - sum(row[f] * t for f, t in zip(free, ts)), row[col])
            if r or x < 1:
                return None
            gamma[s[col] - 1] = x
        return tuple(gamma)

    def record(gamma: MultiIndex | None) -> bool:
        """Keep an admissible gamma up to the bound; False if one lies beyond."""
        if gamma is None or not is_admissible(spec, sigma, gamma):
            return True
        if degree(gamma) > bound:
            return False
        members.append(gamma)
        return True

    if not free:
        return record(solution(()))
    if len(free) > 1:
        for ts in iter_multidegrees(len(free), bound - len(free)):
            record(solution(tuple(t + 1 for t in ts)))
        return False
    # one free variable t: x = (b - c t) / a >= 1 on each pivot row cuts out
    # t in [lo, hi]; integrality and signs repeat in t with period 2L, L the
    # lcm of the denominators of the c / a.  Any t beyond the bound is beyond
    # it in degree, and one period of those t meets every residue class.
    lo, hi, period = 1, inf, 2
    for col, row in pivots:
        a, c, b = row[col], row[free[0]], row[-1]
        if c > 0:
            hi = min(hi, (b - a) // c)
        elif c < 0:
            lo = max(lo, -((b - a) // -c))
        period = lcm(period, 2 * a // gcd(a, c))
    inside = [record(solution((t,))) for t in range(lo, min(hi, bound) + 1)]
    start = max(lo, bound + 1)
    return all(inside) and all(record(solution((t,)))
                               for t in range(start, min(start + period, hi + 1)))


# ---------------------------------------------------------------------------
# homology reports

class DegreeSlice(namedtuple("DegreeSlice", "n generators grading")):
    """The homology basis in degree n: generators a tuple of (alpha, beta)
    symbols, grading a tuple of (gamma, count) pairs."""

    __slots__ = ()

    @property
    def betti(self) -> int:
        return len(self.generators)


class HomologyReport(namedtuple("HomologyReport", "admissible slices")):
    """An AdmissibleSet and the tuple of its DegreeSlices by degree."""

    __slots__ = ()

    @property
    def truncated(self) -> bool:
        return not self.admissible.complete

    def betti_list(self) -> list[int]:
        return [s.betti for s in self.slices]


def build_report(spec: AlgebraSpec, sigma: ScalingAutomorphism, bound: int,
                 n_max: int | None = None) -> HomologyReport:
    """The homology basis up to the bound, by degree: over each admissible
    gamma, the C(|support gamma|, n) symbols x^{gamma-beta} (x) x^beta with
    beta of weight n.  The grading follows the members' (degree, lex) order."""
    if n_max is None:
        n_max = spec.n
    admissible = enumerate_admissible(spec, sigma, bound)
    members = admissible.members
    slices = tuple(
        DegreeSlice(n, tuple(sorted((sub_index(g, b), b) for g in members
                                    for b in exterior_under(g, n))),
                    tuple((g, c) for g in members if (c := comb(len(support(g)), n))))
        for n in range(min(n_max, spec.n) + 1))
    return HomologyReport(admissible, slices)


def predicted_dims(report: HomologyReport) -> dict[tuple[MultiIndex, int], int]:
    """Homology dimension of each (multidegree, degree) cell the report
    grades; every other cell is zero."""
    return {(g, s.n): c for s in report.slices for g, c in s.grading}
