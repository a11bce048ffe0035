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

The contracting homotopy would divide by these defects, so it is built scaled.
Multiplication by one delta_i is already null-homotopic on a Koszul complex,
through the move of x_i back into slot i, so h moves only the first failing
slot i0 = min F(gamma) and the check is dh + hd = D(gamma) id with D(gamma) =
delta_{i0}(gamma), or 0 where F is empty, on the admissible multidegrees.
Elsewhere D(gamma) is a nonzero element of Q or of the Laurent polynomials
over Q, both integral domains, so the scaled identity holds exactly when the
unscaled homotopy contracts.

Since d and h keep gamma fixed and a basis element over gamma is just its
exterior part beta inside supp gamma, the complex is held as one block per
multidegree, built on first use: the d weights beta -> beta - e_i, the h
weights beta -> beta + e_{i0} and D(gamma).  An edge beta -> beta + e_i has
one signed factor s, giving d the weight s delta_i and, if i = i0, h the
weight s^{-1}.  The checks d^2 = 0 and dh + hd = D(gamma) id compose the block
maps for every beta of every gamma up to the bound; handed one complex, the
two checks build each block once.

Coefficients are exact and use +, - and * only, never a quotient: every
weight in numeric mode is a Fraction, and every symbolic one a QPolynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hyperplane import (AlgebraSpec, MultiIndex, ScalingAutomorphism, add_index,
                         commutation_factor, exterior_under, iter_multidegrees,
                         sub_index, support, unit)
from .qscalar import Scalar

BlockMap = dict[MultiIndex, list[tuple[MultiIndex, Scalar]]]


@dataclass(frozen=True)
class CheckReport:
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Block:
    """The complex over one multidegree gamma, where a basis element is its
    exterior part beta: d and the scaled h (slot i0 only) map each beta, in
    exterior_under order, to its (target beta, weight) pairs; scale is D(gamma)."""
    d: BlockMap
    h: BlockMap
    scale: Scalar


class ReducedComplex:
    """Per-multidegree blocks of d and the scaled h for one (Q, sigma)."""

    def __init__(self, spec: AlgebraSpec, sigma: ScalingAutomorphism):
        if sigma.n != spec.n:
            raise ValueError("automorphism size disagrees with the algebra")
        self.spec = spec
        self.sigma = sigma
        self._blocks: dict[MultiIndex, Block] = {}

    # -- coefficients -------------------------------------------------------

    def _signed_factor(self, alpha: MultiIndex, beta: MultiIndex, i: int) -> Scalar:
        """(-1)^{|beta below i|} c_i(u), u = beta below i and alpha above."""
        c = commutation_factor(self.spec, beta[:i - 1] + alpha[i - 1:], i)
        return -c if sum(beta[:i - 1]) % 2 else c

    def defects(self, gamma: MultiIndex) -> tuple[Scalar, ...]:
        """delta_i(gamma) = 1 - p_i / c_i(gamma) for i = 1..N."""
        return tuple(1 - p * commutation_factor(self.spec, gamma, i) ** -1
                     for i, p in enumerate(self.sigma.p, start=1))

    def block(self, gamma: MultiIndex) -> Block:
        """The block of gamma, built on first use."""
        cached = self._blocks.get(gamma)
        if cached is None:
            cached = self._blocks[gamma] = self._build_block(gamma)
        return cached

    def _build_block(self, gamma: MultiIndex) -> Block:
        """Every weight of gamma's block: d moves the failing slots i only, as
        delta_i(gamma) is zero on the others, and h the first of them only."""
        defects = self.defects(gamma)
        failing = [i for i in support(gamma) if defects[i - 1]]
        betas = exterior_under(gamma)
        d: BlockMap = {beta: [] for beta in betas}
        h: BlockMap = {beta: [] for beta in betas}
        for i in failing:
            e = unit(self.spec.n, i)
            for beta in betas:
                if not beta[i - 1]:
                    s = self._signed_factor(sub_index(gamma, beta), beta, i)
                    up = add_index(beta, e)
                    d[up].append((beta, defects[i - 1] * s))
                    if i == failing[0]:
                        h[beta].append((up, s ** -1))
        return Block(d, h, defects[failing[0] - 1] if failing else 0)


def _accumulate(out: dict, key, value) -> None:
    merged = out.get(key, 0) + value
    if not merged:
        out.pop(key, None)
    else:
        out[key] = merged


def _compose(first: BlockMap, second: BlockMap, beta: MultiIndex) -> dict[MultiIndex, Scalar]:
    """second(first(beta)) inside one block."""
    out: dict[MultiIndex, Scalar] = {}
    for middle, w in first[beta]:
        for target, v in second[middle]:
            _accumulate(out, target, w * v)
    return out


# ---------------------------------------------------------------------------
# exhaustive checks

def check_d_squared(complex_: ReducedComplex, bound: int) -> CheckReport:
    """d(d x) = 0 on every basis element up to the bound."""
    failures = []
    checked = 0
    for gamma in iter_multidegrees(complex_.spec.n, bound):
        d = complex_.block(gamma).d
        for beta in d:
            checked += 1
            if _compose(d, d, beta):
                failures.append(f"d(d{(sub_index(gamma, beta), beta)}) != 0")
    return CheckReport(checked, tuple(failures))


def check_homotopy_identity(complex_: ReducedComplex, bound: int) -> CheckReport:
    """dh + hd = D(gamma) id for the scaled h on every basis element up to the
    bound; both sides vanish on admissible multidegrees, and this dichotomy
    is what makes the homology basis exactly the admissible symbols."""
    failures = []
    checked = 0
    for gamma in iter_multidegrees(complex_.spec.n, bound):
        block = complex_.block(gamma)
        for beta in block.d:
            checked += 1
            total = _compose(block.h, block.d, beta)
            for key, c in _compose(block.d, block.h, beta).items():
                _accumulate(total, key, c)
            _accumulate(total, beta, -block.scale)
            if total:
                failures.append(f"(dh+hd){(sub_index(gamma, beta), beta)} != D*id")
    return CheckReport(checked, tuple(failures))
