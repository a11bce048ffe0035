"""Twisted homology bases, Betti numbers and the admissible-set machinery.

The homology of the reduced complex is spanned by the symbols
x^alpha (x) x^beta whose multidegree alpha+beta is admissible for sigma, so
everything reduces to enumerating admissible multidegrees up to a total
degree bound.  Enumeration always routes through the membership predicate;
the one-parameter hyperplane additionally gets a closed-form solver for its
projected integer linear systems, which also settles whether the set is
finite (brute force alone never can).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .hyperplane import (AlgebraSpec, MultiIndex, NUMERIC, SYMBOLIC,
                         ScalingAutomorphism, add_index, canonical_automorphism,
                         degree, exterior_under, is_admissible,
                         iter_multidegrees, sub_index)
from .qscalar import QCoefficient

Generator = tuple[MultiIndex, MultiIndex]


def _sort_degrees(members: Iterable[MultiIndex]) -> tuple[MultiIndex, ...]:
    return tuple(sorted(set(members), key=lambda g: (degree(g), g)))


@dataclass(frozen=True)
class AdmissibleSet:
    """Admissible multidegrees up to a bound.

    complete means the listed members are provably all of them, not just all
    below the bound; it is established structurally (one-parameter solver or
    symbolic pinning), never by the scan itself.
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
    """Admissible set up to the bound, with the best completeness verdict.

    Members always come from the exhaustive scan except on the one-parameter
    fast path, where the solver supplies them (tests pin the two routes to
    agree).
    """
    if spec.mode == NUMERIC and sigma == canonical_automorphism(spec):
        q0 = spec.uniform_value()
        if q0 is not None and q0 not in (Fraction(1), Fraction(-1)):
            return one_parameter_admissible(spec.n, bound)
        if spec.n == 1:
            return one_parameter_admissible(1, bound)
    members = scan_admissible(spec, sigma, bound)
    complete = False
    if spec.mode == SYMBOLIC:
        complete = _symbolic_complete(spec, sigma, bound)
    return AdmissibleSet(members, bound, complete)


def _symbolic_complete(spec: AlgebraSpec, sigma: ScalingAutomorphism,
                       bound: int) -> bool:
    """Finiteness analysis for independent symbols.

    The condition at a support position i equates independent symbols
    pairwise, so it pins gamma(k) for every k != i.  Hence any member
    supported on two or more positions is one of finitely many candidates,
    and infinite families occur exactly at positions with p_i = 1 (where
    every multiple of that unit multidegree qualifies).
    """
    pinned: dict[int, list[int] | None] = {}
    for i in range(1, spec.n + 1):
        p = sigma.p[i - 1]
        scalar, exponent = ((p.scalar, p.exponent.items()) if isinstance(p, QCoefficient)
                            else (p, ()))
        if scalar != 1:
            pinned[i] = None
            continue
        row: list[int] | None = [0] * spec.n
        for (a, b), e in exponent:
            if b == i:
                row[a - 1] = e
            elif a == i:
                row[b - 1] = -e
            else:
                row = None
                break
        if row is not None and any(v < 0 for k, v in enumerate(row) if k != i - 1):
            row = None
        pinned[i] = row
    for i in range(1, spec.n + 1):
        if pinned[i] is not None and sigma.p[i - 1] == 1:
            return False        # the whole ray through unit(i) qualifies
    for i in range(1, spec.n + 1):
        if pinned[i] is None:
            continue
        for j in range(1, spec.n + 1):
            if j == i or pinned[j] is None:
                continue
            candidate = list(pinned[i])
            candidate[i - 1] = pinned[j][i - 1]
            gamma = tuple(candidate)
            if gamma[i - 1] <= 0 or gamma[j - 1] <= 0:
                continue
            if is_admissible(spec, sigma, gamma) and degree(gamma) > bound:
                return False
    return True


def one_parameter_admissible(n: int, bound: int) -> AdmissibleSet:
    """Admissible set of the one-parameter hyperplane, canonical twist.

    For a support S = {s_1 < ... < s_k} the defining conditions project to
    the linear system with the all-ones-above-the-diagonal antisymmetric
    matrix; consecutive rows give T_m + T_{m+1} = 2(s_{m+1} - s_m) and the
    first row pins the remaining freedom.  Valid for any q that is not a
    root of unity, hence for any rational q other than +-1.
    """
    if n < 1:
        raise ValueError("need at least one generator")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    members: set[MultiIndex] = {(0,) * n}
    complete = True

    def record(values: dict[int, int]) -> None:
        nonlocal complete
        gamma = tuple(values.get(i, 0) for i in range(1, n + 1))
        if degree(gamma) <= bound:
            members.add(gamma)
        else:
            complete = False

    for mask in range(1, 1 << n):
        s = [i + 1 for i in range(n) if mask >> i & 1]
        k = len(s)
        # T_m = offset_m + flip_m * T_1 solves the consecutive differences
        offsets = [0]
        flips = [1]
        for m in range(1, k):
            offsets.append(2 * (s[m] - s[m - 1]) - offsets[-1])
            flips.append(-flips[-1])
        rhs = n - 2 * s[0] + 1
        const = sum(offsets[1:])
        slope = sum(flips[1:])
        if slope != 0:
            num = rhs - const
            if num % slope:
                continue
            t1 = num // slope
            values = {s[m]: offsets[m] + flips[m] * t1 for m in range(k)}
            if all(v >= 1 for v in values.values()):
                record(values)
        elif const == rhs:
            if k == 1:
                complete = False        # free ray: every positive T_1 works
                for t1 in range(1, bound + 1):
                    record({s[0]: t1})
            else:
                # flips alternate, so T_1 is caged by the even positions
                lows = [1 - offsets[m] for m in range(k) if flips[m] == 1]
                highs = [offsets[m] - 1 for m in range(k) if flips[m] == -1]
                lo = max(lows)
                hi = min(highs)
                for t1 in range(lo, hi + 1):
                    record({s[m]: offsets[m] + flips[m] * t1 for m in range(k)})
    return AdmissibleSet(_sort_degrees(members), bound, complete)


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
