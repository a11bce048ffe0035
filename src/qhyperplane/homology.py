"""Twisted homology bases, Betti numbers and the admissible-set solver.

The homology of the reduced complex is spanned by the symbols
x^alpha (x) x^beta whose multidegree alpha+beta is admissible for sigma, so
everything reduces to enumerating admissible multidegrees up to a total
degree bound.  One exact solver does this for every mode and twist.  On a
support S, gamma is admissible when prod_{k in S, k != i} q_ki^{gamma(k)}
= p_i for each i in S; over a coprime base of the rationals involved (and
the symbols q_ij) this is an integer linear system blind only to signs,
which the membership predicate then decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, inf, lcm
from typing import Iterable

from .hyperplane import (AlgebraSpec, MultiIndex, ScalingAutomorphism, add_index,
                         canonical_automorphism, degree, exterior_under,
                         is_admissible, iter_multidegrees, sub_index)
from .qscalar import QCoefficient, Scalar

Generator = tuple[MultiIndex, MultiIndex]


def _sort_degrees(members: Iterable[MultiIndex]) -> tuple[MultiIndex, ...]:
    return tuple(sorted(set(members), key=lambda g: (degree(g), g)))


@dataclass(frozen=True)
class AdmissibleSet:
    """Admissible multidegrees up to a bound.

    complete means the listed members are provably all of them, not just all
    below the bound.  The solver decides it on every support with at most
    one free variable and never claims it otherwise.
    """

    members: tuple[MultiIndex, ...]
    bound: int
    complete: bool

    def to_dict(self) -> dict:
        return {"members": [list(g) for g in self.members],
                "bound": self.bound, "complete": self.complete}


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
                         for x in _rational(c).as_integer_ratio())
    q_vec = {ki: _exponents(c, base) for ki, c in q.items()}
    p_vec = [_exponents(c, base) for c in sigma.p]
    members: list[MultiIndex] = []
    complete = True
    for mask in range(1 << spec.n):
        s = [i for i in range(1, spec.n + 1) if mask >> (i - 1) & 1]
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
    return AdmissibleSet(_sort_degrees(members), bound, complete)


def one_parameter_admissible(n: int, bound: int) -> AdmissibleSet:
    """Admissible set of the one-parameter hyperplane (q = 2), canonical twist."""
    spec = AlgebraSpec.one_parameter(n, 2)
    return enumerate_admissible(spec, canonical_automorphism(spec), bound)


def _rational(c: Scalar) -> Fraction:
    return c.scalar if isinstance(c, QCoefficient) else Fraction(c)


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
    vec = dict(c.exponent.items()) if isinstance(c, QCoefficient) else {}
    num, den = _rational(c).as_integer_ratio()
    for b in base:
        e = 0
        while num % b == 0:
            num, e = num // b, e + 1
        while den % b == 0:
            den, e = den // b, e - 1
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


def _solve_support(spec: AlgebraSpec, sigma: ScalingAutomorphism, s: list[int],
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

def generators_for_degree(admissible: Iterable[MultiIndex],
                          n: int) -> tuple[Generator, ...]:
    """All (alpha, beta) with beta of weight n sitting under an admissible
    multidegree gamma, and alpha = gamma - beta."""
    return tuple(sorted((sub_index(gamma, beta), beta)
                        for gamma in admissible for beta in exterior_under(gamma, n)))


@dataclass(frozen=True)
class DegreeSlice:
    n: int
    generators: tuple[Generator, ...]
    grading: tuple[tuple[MultiIndex, int], ...]

    @property
    def betti(self) -> int:
        return len(self.generators)

    def to_dict(self) -> dict:
        return {"n": self.n, "betti": self.betti,
                "generators": [{"alpha": list(a), "beta": list(b)}
                               for a, b in self.generators],
                "grading": [{"gamma": list(g), "count": c}
                            for g, c in self.grading]}


@dataclass(frozen=True)
class HomologyReport:
    spec: AlgebraSpec
    sigma: ScalingAutomorphism
    bound: int
    n_max: int
    admissible: AdmissibleSet
    slices: tuple[DegreeSlice, ...]

    @property
    def truncated(self) -> bool:
        return not self.admissible.complete

    def betti(self, n: int) -> int:
        if 0 <= n < len(self.slices):
            return self.slices[n].betti
        return 0

    def betti_list(self) -> list[int]:
        return [s.betti for s in self.slices]

    def to_dict(self) -> dict:
        return {"mode": self.spec.mode,
                "n": self.spec.n,
                "bound": self.bound,
                "n_max": self.n_max,
                "sigma": [str(c) for c in self.sigma.p],
                "truncated": self.truncated,
                "admissible": self.admissible.to_dict(),
                "betti": self.betti_list(),
                "degrees": [s.to_dict() for s in self.slices]}


def homology_basis(spec: AlgebraSpec, sigma: ScalingAutomorphism, n: int,
                   bound: int, admissible: AdmissibleSet | None = None) -> DegreeSlice:
    """The degree-n slice of the homology basis up to the bound."""
    if not 0 <= n <= spec.n:
        raise ValueError(f"homological degree {n} outside 0..{spec.n}")
    if admissible is None:
        admissible = enumerate_admissible(spec, sigma, bound)
    gens = generators_for_degree(admissible.members, n)
    grading: dict[MultiIndex, int] = {}
    for alpha, beta in gens:
        gamma = add_index(alpha, beta)
        grading[gamma] = grading.get(gamma, 0) + 1
    graded = tuple(sorted(grading.items(), key=lambda kv: (degree(kv[0]), kv[0])))
    return DegreeSlice(n, gens, graded)


def build_report(spec: AlgebraSpec, sigma: ScalingAutomorphism, bound: int,
                 n_max: int | None = None) -> HomologyReport:
    if n_max is None:
        n_max = spec.n
    admissible = enumerate_admissible(spec, sigma, bound)
    slices = tuple(homology_basis(spec, sigma, n, bound, admissible)
                   for n in range(min(n_max, spec.n) + 1))
    return HomologyReport(spec, sigma, bound, n_max, admissible, slices)


def predicted_dims(spec: AlgebraSpec, sigma: ScalingAutomorphism,
                   gamma: MultiIndex, n: int) -> int:
    """Homology dimension at one (multidegree, n) cell: the count of exterior
    parts of weight n under gamma when gamma is admissible, else zero."""
    if n < 0 or n > spec.n or not is_admissible(spec, sigma, gamma):
        return 0
    return len(exterior_under(gamma, n))
