"""The reduced twisted Koszul complex of the quantum hyperplane.

Chains live on basis symbols x^alpha (x) x^beta with alpha a multi-index and
beta a 0/1 multi-index; the homological degree is |beta| and the multidegree
alpha+beta is preserved by everything here.  The differential moves one
exterior slot into the symmetric part, weighted by an explicit coefficient;
the contracting homotopy moves a slot back and exhibits the part of the
complex sitting over non-admissible multidegrees as acyclic.

Coefficients are exact and use the ordinary operators only: a weight with
no q in it (every weight in numeric mode) is a Fraction, any other a QFraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .hyperplane import (AlgebraSpec, MultiIndex, ScalingAutomorphism, add_index,
                         exterior_under, iter_multidegrees, sigma_commutes_at,
                         sub_index, unit)
from .qscalar import QFraction, Scalar

BasisElement = tuple[MultiIndex, MultiIndex]      # (alpha, beta)
Chain = dict[BasisElement, Scalar | QFraction]


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    checked: int
    failures: tuple[str, ...]
    bound: int

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checked": self.checked,
                "bound": self.bound, "failures": list(self.failures)}


class ReducedComplex:
    """Differential, homotopy and exhaustive self-checks for one (Q, sigma)."""

    def __init__(self, spec: AlgebraSpec, sigma: ScalingAutomorphism):
        if sigma.n != spec.n:
            raise ValueError("automorphism size disagrees with the algebra")
        self.spec = spec
        self.sigma = sigma
        self._failing: dict[MultiIndex, tuple[int, ...]] = {}

    # -- coefficients -------------------------------------------------------

    def differential_coefficient(self, alpha: MultiIndex, beta: MultiIndex,
                                 i: int) -> Fraction | QFraction:
        """Weight of the move of exterior slot i into the symmetric part.

        sign * (q_{si}^{beta(s)} products * q_{ir}^{-alpha(r)} products
                -  p_i * the mirrored products),
        with sign (-1)^{number of exterior slots below i}.  The value is zero
        exactly when x^{alpha+beta} x_i = sigma(x_i) x^{alpha+beta}.
        """
        spec = self.spec
        if not 1 <= i <= spec.n:
            raise IndexError(f"generator index {i} out of range 1..{spec.n}")
        first = Fraction(1)
        for s in range(1, i):
            if beta[s - 1]:
                first = first * spec.q_power(s, i, beta[s - 1])
        for r in range(i + 1, spec.n + 1):
            if alpha[r - 1]:
                first = first * spec.q_power(i, r, -alpha[r - 1])
        second = self.sigma.p[i - 1]
        for s in range(i + 1, spec.n + 1):
            if beta[s - 1]:
                second = second * spec.q_power(i, s, beta[s - 1])
        for r in range(1, i):
            if alpha[r - 1]:
                second = second * spec.q_power(r, i, -alpha[r - 1])
        if sum(beta[: i - 1]) % 2:
            first, second = -first, -second
        return first - second

    def failing_indices(self, gamma: MultiIndex) -> tuple[int, ...]:
        """Support positions where the sigma-commutation condition fails.

        Empty exactly for admissible multidegrees; its size is the
        normalisation weight of the homotopy.
        """
        cached = self._failing.get(gamma)
        if cached is None:
            cached = tuple(i for i, g in enumerate(gamma, start=1)
                           if g > 0 and not sigma_commutes_at(self.spec, self.sigma, gamma, i))
            self._failing[gamma] = cached
        return cached

    def homotopy_coefficient(self, alpha: MultiIndex, beta: MultiIndex,
                             i: int) -> Fraction | QFraction:
        """Inverse differential weight, zero on the four degenerate cases.

        Zero when the multidegree is admissible, when the exterior slot i is
        already occupied, when the symmetric part has no x_i to move, and
        when generator i itself sigma-commutes with x^{alpha+beta} (the
        weight to invert vanishes there, and the slot contributes nothing to
        the contraction).
        """
        spec = self.spec
        if not 1 <= i <= spec.n:
            raise IndexError(f"generator index {i} out of range 1..{spec.n}")
        gamma = add_index(alpha, beta)
        failing = self.failing_indices(gamma)
        if not failing or beta[i - 1] == 1 or alpha[i - 1] == 0 or i not in failing:
            return Fraction(0)
        moved = self.differential_coefficient(
            sub_index(alpha, unit(spec.n, i)), add_index(beta, unit(spec.n, i)), i)
        if not moved:
            raise ArithmeticError(
                f"homotopy weight at {(alpha, beta, i)} would invert zero")
        return 1 / moved

    # -- chain maps ---------------------------------------------------------

    def differential(self, c: Chain) -> Chain:
        out: Chain = {}
        for (alpha, beta), coeff in c.items():
            for i in range(1, self.spec.n + 1):
                if beta[i - 1] != 1:
                    continue
                w = self.differential_coefficient(alpha, beta, i)
                if not w:
                    continue
                key = (add_index(alpha, unit(self.spec.n, i)),
                       sub_index(beta, unit(self.spec.n, i)))
                _accumulate(out, key, w * coeff)
        return out

    def homotopy(self, c: Chain) -> Chain:
        out: Chain = {}
        for (alpha, beta), coeff in c.items():
            gamma = add_index(alpha, beta)
            failing = self.failing_indices(gamma)
            if not failing:
                continue
            norm = Fraction(1, len(failing))
            for i in range(1, self.spec.n + 1):
                w = self.homotopy_coefficient(alpha, beta, i)
                if not w:
                    continue
                new_beta = add_index(beta, unit(self.spec.n, i))
                if new_beta[i - 1] > 1:
                    raise ArithmeticError("exterior slot escaped {0,1}")
                key = (sub_index(alpha, unit(self.spec.n, i)), new_beta)
                _accumulate(out, key, w * coeff * norm)
        return out

    # -- basis and exhaustive checks -----------------------------------------

    def basis_elements(self, bound: int) -> Iterator[BasisElement]:
        """All (alpha, beta) with |alpha+beta| <= bound, multidegree-major."""
        for gamma in iter_multidegrees(self.spec.n, bound):
            for beta in exterior_under(gamma):
                yield (sub_index(gamma, beta), beta)

    def check_differential_squared(self, bound: int) -> CheckReport:
        failures = []
        checked = 0
        for element in self.basis_elements(bound):
            checked += 1
            if self.differential(self.differential({element: Fraction(1)})):
                failures.append(f"d(d{element}) != 0")
        return CheckReport(not failures, checked, tuple(failures), bound)

    def check_homotopy_identity(self, bound: int) -> CheckReport:
        """dh + hd acts as the identity off the admissible multidegrees.

        On admissible multidegrees both maps vanish, so the sum is zero
        there; this dichotomy is what makes the homology basis exactly the
        admissible symbols.
        """
        failures = []
        checked = 0
        for element in self.basis_elements(bound):
            checked += 1
            one = {element: Fraction(1)}
            total = self.differential(self.homotopy(one))
            for key, c in self.homotopy(self.differential(one)).items():
                _accumulate(total, key, c)
            admissible = not self.failing_indices(add_index(*element))
            if not admissible:
                _accumulate(total, element, Fraction(-1))
            if total:
                failures.append(f"(dh+hd){element} != "
                                + ("0" if admissible else "id"))
        return CheckReport(not failures, checked, tuple(failures), bound)


def _accumulate(out: Chain, key: BasisElement, value) -> None:
    merged = out.get(key, 0) + value
    if not merged:
        out.pop(key, None)
    else:
        out[key] = merged


def check_d_squared(spec: AlgebraSpec, sigma: ScalingAutomorphism, bound: int) -> CheckReport:
    return ReducedComplex(spec, sigma).check_differential_squared(bound)


def check_homotopy_identity(spec: AlgebraSpec, sigma: ScalingAutomorphism, bound: int) -> CheckReport:
    return ReducedComplex(spec, sigma).check_homotopy_identity(bound)
