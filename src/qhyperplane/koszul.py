"""The reduced twisted Koszul complex of the quantum hyperplane.

Chains live on basis symbols x^alpha (x) x^beta with alpha a multi-index and
beta a 0/1 multi-index; the homological degree is |beta| and the multidegree
alpha+beta is preserved by everything here.  The differential moves one
exterior slot into the symmetric part; the contracting homotopy moves a slot
back and exhibits the part of the complex sitting over non-admissible
multidegrees as acyclic.

With c_i(g) the factor in x^g x_i = c_i(g) x_i x^g, moving slot i out of
x^alpha (x) x^beta weighs (-1)^{|beta below i|} (c_i(u) - p_i / c_i(v)), u
being beta below i and alpha above it and v the mirrored split.  As c_i is
multiplicative and blind to coordinate i, c_i(u) c_i(v) = c_i(gamma) for
gamma = alpha+beta, so the weight is (-1)^{|beta below i|} c_i(u) delta_i(gamma)
with the commutation defect delta_i(gamma) = 1 - p_i / c_i(gamma), computed
once per multidegree.  It vanishes exactly when x_i sigma-commutes with
x^gamma, so the failing indices F(gamma) are its nonzero entries on the
support.

The contracting homotopy would divide by these defects, so it is built
scaled by D(gamma) = |F(gamma)| prod_{i in F} delta_i(gamma), and the check is
dh + hd = D(gamma) id on every multidegree.  D(gamma) is zero exactly where F
is empty, on the admissible multidegrees; elsewhere it is a nonzero element of
Q or of the Laurent polynomials over Q, both integral domains, so the scaled
identity holds exactly when the unscaled homotopy contracts.

Coefficients are exact and use +, - and * only, never a quotient: every
weight in numeric mode is a Fraction, and every symbolic one a QPolynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator

from .hyperplane import (AlgebraSpec, MultiIndex, ScalingAutomorphism, add_index,
                         commutation_factor, exterior_under, iter_multidegrees,
                         sub_index, unit)
from .qscalar import Scalar

BasisElement = tuple[MultiIndex, MultiIndex]      # (alpha, beta)
Chain = dict[BasisElement, Scalar]


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
    """Differential, homotopy and basis for one (Q, sigma)."""

    def __init__(self, spec: AlgebraSpec, sigma: ScalingAutomorphism):
        if sigma.n != spec.n:
            raise ValueError("automorphism size disagrees with the algebra")
        self.spec = spec
        self.sigma = sigma
        self._defects: dict[MultiIndex, tuple[Scalar, ...]] = {}

    # -- coefficients -------------------------------------------------------

    def _signed_factor(self, alpha: MultiIndex, beta: MultiIndex, i: int) -> Scalar:
        """(-1)^{|beta below i|} c_i(u), u = beta below i and alpha above."""
        c = commutation_factor(self.spec, beta[:i - 1] + alpha[i - 1:], i)
        return -c if sum(beta[:i - 1]) % 2 else c

    def differential_coefficient(self, alpha: MultiIndex, beta: MultiIndex,
                                 i: int) -> Scalar:
        """Weight of the move of exterior slot i into the symmetric part:
        sign * c_i(u) * delta_i(alpha+beta)."""
        return self._signed_factor(alpha, beta, i) * self.defects(add_index(alpha, beta))[i - 1]

    def defects(self, gamma: MultiIndex) -> tuple[Scalar, ...]:
        """delta_i(gamma) = 1 - p_i / c_i(gamma) for i = 1..N, once per gamma."""
        cached = self._defects.get(gamma)
        if cached is None:
            cached = tuple(1 - p * commutation_factor(self.spec, gamma, i) ** -1
                           for i, p in enumerate(self.sigma.p, start=1))
            self._defects[gamma] = cached
        return cached

    def failing_indices(self, gamma: MultiIndex) -> tuple[int, ...]:
        """Support positions where the sigma-commutation condition fails,
        none exactly when gamma is admissible."""
        return tuple(i for i, (g, d) in enumerate(zip(gamma, self.defects(gamma)), start=1)
                     if g and d)

    def defect_product(self, gamma: MultiIndex) -> Scalar:
        """D(gamma) = |F| * prod_{i in F} delta_i(gamma) over the failing
        indices F: the scale of the homotopy, zero exactly when gamma is
        admissible."""
        failing = self.failing_indices(gamma)
        return prod((self.defects(gamma)[i - 1] for i in failing),
                    start=Fraction(len(failing)))

    # -- chain maps ---------------------------------------------------------

    def differential(self, c: Chain) -> Chain:
        out: Chain = {}
        for (alpha, beta), coeff in c.items():
            for i in range(1, self.spec.n + 1):
                w = beta[i - 1] and self.differential_coefficient(alpha, beta, i)
                if w:
                    e = unit(self.spec.n, i)
                    _accumulate(out, (add_index(alpha, e), sub_index(beta, e)), w * coeff)
        return out

    def homotopy(self, c: Chain) -> Chain:
        """D(gamma) times the contracting homotopy: each failing x_i of x^alpha
        moves back into its empty slot i with weight
        sign * c_i(u)^{-1} * prod_{j in F, j != i} delta_j(gamma)."""
        out: Chain = {}
        for (alpha, beta), coeff in c.items():
            gamma = add_index(alpha, beta)
            failing = self.failing_indices(gamma)
            for i in failing:
                if beta[i - 1]:
                    continue
                w = prod((self.defects(gamma)[j - 1] for j in failing if j != i),
                         start=self._signed_factor(alpha, beta, i) ** -1)
                e = unit(self.spec.n, i)
                _accumulate(out, (sub_index(alpha, e), add_index(beta, e)), w * coeff)
        return out

    # -- basis --------------------------------------------------------------

    def basis_elements(self, bound: int) -> Iterator[BasisElement]:
        """All (alpha, beta) with |alpha+beta| <= bound, multidegree-major."""
        for gamma in iter_multidegrees(self.spec.n, bound):
            for beta in exterior_under(gamma):
                yield (sub_index(gamma, beta), beta)


def _accumulate(out: Chain, key: BasisElement, value) -> None:
    merged = out.get(key, 0) + value
    if not merged:
        out.pop(key, None)
    else:
        out[key] = merged


# ---------------------------------------------------------------------------
# exhaustive checks

def check_d_squared(spec: AlgebraSpec, sigma: ScalingAutomorphism, bound: int) -> CheckReport:
    """d(d x) = 0 on every basis element up to the bound."""
    complex_ = ReducedComplex(spec, sigma)
    failures = []
    checked = 0
    for element in complex_.basis_elements(bound):
        checked += 1
        if complex_.differential(complex_.differential({element: Fraction(1)})):
            failures.append(f"d(d{element}) != 0")
    return CheckReport(not failures, checked, tuple(failures), bound)


def check_homotopy_identity(spec: AlgebraSpec, sigma: ScalingAutomorphism, bound: int) -> CheckReport:
    """dh + hd = D(gamma) id for the scaled h on every basis element up to the
    bound; both sides vanish on admissible multidegrees, and this dichotomy
    is what makes the homology basis exactly the admissible symbols."""
    complex_ = ReducedComplex(spec, sigma)
    failures = []
    checked = 0
    for element in complex_.basis_elements(bound):
        checked += 1
        one = {element: Fraction(1)}
        total = complex_.differential(complex_.homotopy(one))
        for key, c in complex_.homotopy(complex_.differential(one)).items():
            _accumulate(total, key, c)
        _accumulate(total, element, -complex_.defect_product(add_index(*element)))
        if total:
            failures.append(f"(dh+hd){element} != D*id")
    return CheckReport(not failures, checked, tuple(failures), bound)
