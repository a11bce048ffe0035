"""Twisted homology bases, Betti numbers and the admissible-set solver.

The homology of the reduced complex is spanned by the symbols
x^alpha (x) x^beta whose multidegree alpha+beta is admissible for sigma, so
everything reduces to enumerating admissible multidegrees up to a total
degree bound.  One exact solver does this for every mode and twist.  On a
support S, gamma is admissible when prod_{k in S, k != i} q_ki^{gamma(k)}
= p_i for each i in S; over a coprime base of the rationals involved (and
the symbols q_ij) this is an integer linear system blind only to signs,
which the membership predicate then decides.  Supports are walked depth
first, a child adding one generator j > max S to its parent S.  It inherits
S's reduced row echelon form (pivot rows by column, and rest rows, zero on
S), reduces j's rows, built once, against those pivots, and pivots the
columns they reach: S's free columns in order, then j.  The columns of
skipped generators are cut.  A support is consistent, and solved at its
visit, when no rest row has a nonzero right side; a rest row reading
0 = nonzero on j and on every later column ends the subtree.  Once
completeness is settled false, supports of size >= bound are not extended.
This gives exactly the result of a fresh elimination per support: the
echelon form is unique up to positive row scales and the support solver
reads only ratios; a pruned subtree holds no consistent support; the stop
drops only supports past the bound (no member: each has degree at least its
size) while completeness is already false; the members are sorted last.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from itertools import islice
from math import comb, gcd, inf, lcm
from operator import sub

from .hyperplane import (AlgebraSpec, MultiIndex, ScalingAutomorphism,
                         canonical_automorphism, degree, exterior_under,
                         is_admissible, iter_multidegrees)
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
    """Admissible set up to the bound, by the walk of the module docstring."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    gens = range(1, spec.n + 1)
    base = _coprime_base({abs(x) for c in (*spec.q.values(), *sigma.p)
                          for x in term(c)[0].as_integer_ratio()})
    q_vec = {ij: _exponents(c, base) for ij, c in spec.q.items()}    # i < j
    rows = []
    for i, p in zip(gens, sigma.p):     # q_ki for k > i is q_ik inverted
        p_vec = _exponents(p, base)
        into = [q_vec[k, i] if k < i else {x: -e for x, e in q_vec[i, k].items()}
                if k > i else {} for k in gens]
        rows.append([[vec.get(coord, 0) for vec in into] + [p_vec.get(coord, 0)]
                     for coord in set(p_vec).union(*into)])
    members: list[MultiIndex] = []
    complete, stack = True, [((), [], [])]
    while stack:
        s, pivots, rest = stack.pop()
        if not any(row[-1] for row in rest):
            complete &= _solve_support(spec, sigma, s, pivots, bound, members)
        if len(s) < bound or complete:
            stack += reversed([(s + (j,), *child) for j in gens[s[-1] if s else 0:]
                               if (child := _extend(pivots, rest, rows[j - 1], s, j))])
    return AdmissibleSet(_sort_degrees(members), complete)


def _extend(pivots: list[tuple[int, list[int]]], rest: list[list[int]], new: list[list[int]],
            s: tuple[int, ...], j: int) -> tuple[list, list] | None:
    """The echelon form of s + (j,) from that of s, None if its subtree is pruned.
    Rows run over s, the generators after max s and the right side; new over all."""
    m, skipped = len(s), j - 1 - (s[-1] if s else 0)
    pivots = [(col, row[:m] + row[m + skipped:]) for col, row in pivots]
    pool = [row[:m] + row[m + skipped:] for row in rest]
    for row in new:
        row = [row[k - 1] for k in s] + row[j - 1:]
        for col, pivot in pivots:
            row = _eliminate(row, pivot, col)
        pool.append(row)
    for col in sorted(set(range(m)).difference(c for c, _ in pivots)) + [m]:
        if (at := next((at for at, row in enumerate(pool) if row[col]), None)) is None:
            continue
        pick = pool.pop(at)
        pick = [-x for x in pick] if pick[col] < 0 else pick
        pool = [_eliminate(row, pick, col) if row[col] else row for row in pool]
        pivots = [(c, _eliminate(row, pick, col) if row[col] else row)
                  for c, row in pivots] + [(col, pick)]
    rest = [row for row in pool if any(row[m + 1:])]
    return None if any(row[-1] and not any(row[m + 1:-1]) for row in rest) else (pivots, rest)


def one_parameter_admissible(n: int, bound: int) -> AdmissibleSet:
    """Admissible set of the one-parameter hyperplane x_i x_j = 2 x_j x_i for
    i > j, that is q_ij = 1/2 for i < j, with the canonical twist."""
    spec = AlgebraSpec.numeric(n, dict.fromkeys(all_pairs(n), Fraction(1, 2)))
    return enumerate_admissible(spec, canonical_automorphism(spec), bound)


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product,
    built by gcd splitting, so no value is ever factored; a value coprime to
    the product of the base joins it after one gcd, and only others scan it."""
    base: list[int] = []
    whole, pending = 1, [x for x in values if x > 1]     # whole = prod(base)
    while pending:
        x = pending.pop()
        b = next(b for b in base if gcd(x, b) > 1) if gcd(x, whole) > 1 else None
        if b is None:
            base.append(x)
            whole *= x
        elif b != x:
            base.remove(b)
            whole //= b
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
    members; False unless it is proven that none lies beyond the bound.  Of
    each pivot row it reads the columns of s and the right side, last."""
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
    by_degree = [([], []) for _ in range(min(n_max, spec.n) + 1)]
    for g in admissible.members:
        weight = len(g) - g.count(0)
        symbols = ((tuple(map(sub, g, b)), b) for b in exterior_under(g))
        for n, (generators, grading) in enumerate(by_degree[:weight + 1]):
            generators.extend(islice(symbols, comb(weight, n)))
            grading.append((g, comb(weight, n)))
    slices = tuple(DegreeSlice(n, tuple(sorted(generators)), tuple(grading))
                   for n, (generators, grading) in enumerate(by_degree))
    return HomologyReport(admissible, slices)


def predicted_dims(report: HomologyReport) -> dict[tuple[MultiIndex, int], int]:
    """Homology dimension of each (multidegree, degree) cell the report
    grades; every other cell is zero."""
    return {(g, s.n): c for s in report.slices for g, c in s.grading}
