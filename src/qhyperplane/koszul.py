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
gamma = alpha+beta, so the weight is delta_i(gamma) s, with the signed factor
s = (-1)^{|beta below i|} c_i(u) and the commutation defect delta_i(gamma) =
1 - p_i / c_i(gamma).  The defect vanishes exactly when x_i sigma-commutes
with x^gamma, so over one multidegree d = sum delta_i(gamma) del_i over the
failing indices i in F(gamma), where del_i is the move of slot i weighted by
s alone.  The homotopy h moves x_{i0} of x^alpha, i0 = min F(gamma), back
into its empty slot i0 with weight s^{-1}, and no other slot.

The checks run on del = sum del_i over F(gamma), never on a defect.  Each
delta_i(gamma), i in F(gamma), is a nonzero constant of the block, in Q or
in the Laurent polynomials over Q, both integral domains, and each pair of
slots lands on its own target: beta - e_i - e_j for d^2, and beta + e_{i0} -
e_i for dh + hd.  So, basis element by basis element, d^2 beta = 0 exactly
when del^2 beta = 0, and (dh + hd) beta = delta_{i0}(gamma) beta exactly when
(del h + h del) beta = beta: h / delta_{i0}(gamma) contracts the block.  On
the admissible multidegrees F is empty and both sides vanish, so the check
is del h + h del = D(gamma) id with D(gamma) = 1 where F(gamma) is non-empty
and 0 where it is empty.

Since del and h keep gamma fixed and a basis element over gamma is just its
exterior part beta inside supp gamma, the complex is one block per
multidegree: the del weights beta -> beta - e_i, the h weights beta -> beta +
e_{i0} and D(gamma).  Each check composes the block maps for every beta of
one block, and check_complex walks once, one block at a time: it builds each
block up to the bound, checks it both ways and drops it.

Every weight is a Fraction or, in symbolic mode, a QMonomial c * q^m, a
single term either way, so a composite sums the coefficients c of its
products keyed by (target beta, packed monomial m): the checks add ints or
Fractions, never symbolic scalars.
"""

from __future__ import annotations

from collections import namedtuple

from .hyperplane import (AlgebraSpec, MultiIndex, ScalingAutomorphism, add_index,
                         commutation_factor, exterior_under, iter_multidegrees,
                         sigma_commutes_at, sub_index, support, unit)
from .qscalar import Coefficient, Monomial, QMonomial, Scalar

BlockMap = dict[MultiIndex, list[tuple[MultiIndex, Scalar]]]


class CheckReport(namedtuple("CheckReport", "checked failures")):
    """The count of basis elements checked and a tuple of failure messages."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


class Block(namedtuple("Block", "gamma d h scale")):
    """The complex over one multidegree gamma, where a basis element is its
    exterior part beta: d holds the moves del and h the homotopy (slot i0
    only), each mapping beta, in exterior_under order, to its (target beta,
    weight) pairs; scale is D(gamma), 1 off the admissible multidegrees."""

    __slots__ = ()


class ReducedComplex:
    """The blocks of del and h for one (Q, sigma), built afresh on each call."""

    def __init__(self, spec: AlgebraSpec, sigma: ScalingAutomorphism):
        if sigma.n != spec.n:
            raise ValueError("automorphism size disagrees with the algebra")
        self.spec = spec
        self.sigma = sigma

    def _signed_factor(self, alpha: MultiIndex, beta: MultiIndex, i: int) -> Scalar:
        """(-1)^{|beta below i|} c_i(u), u = beta below i and alpha above."""
        c = commutation_factor(self.spec, beta[:i - 1] + alpha[i - 1:], i)
        return -c if sum(beta[:i - 1]) % 2 else c

    def block(self, gamma: MultiIndex) -> Block:
        """Every weight of gamma's block: del moves the failing slots i only,
        as delta_i(gamma) is zero on the others, and h the first of them only."""
        failing = [i for i in support(gamma)
                   if not sigma_commutes_at(self.spec, self.sigma, gamma, i)]
        betas = exterior_under(gamma)
        d: BlockMap = {beta: [] for beta in betas}
        h: BlockMap = {beta: [] for beta in betas}
        for i in failing:
            e = unit(self.spec.n, i)
            for beta in betas:
                if not beta[i - 1]:
                    s = self._signed_factor(sub_index(gamma, beta), beta, i)
                    up = add_index(beta, e)
                    d[up].append((beta, s))
                    if i == failing[0]:
                        h[beta].append((up, s ** -1))
        return Block(gamma, d, h, 1 if failing else 0)


Terms = dict[tuple[MultiIndex, Monomial], Coefficient]


def _accumulate(out: Terms, target: MultiIndex, value: Scalar) -> None:
    """Add the term value to out at target, keyed by its packed monomial."""
    if isinstance(value, QMonomial):
        key, c = (target, value.m), value.c
    else:
        key, c = (target, 0), value
    merged = out.get(key, 0) + c
    if merged:
        out[key] = merged
    else:
        out.pop(key, None)


def _compose(first: BlockMap, second: BlockMap, beta: MultiIndex, out: Terms) -> Terms:
    """Add second(first(beta)) to out inside one block."""
    for middle, w in first[beta]:
        for target, v in second[middle]:
            _accumulate(out, target, w * v)
    return out


# ---------------------------------------------------------------------------
# exhaustive checks

def check_d_squared(block: Block) -> CheckReport:
    """d(d x) = 0 on every basis element of the block, checked as
    del(del x) = 0."""
    d = block.d
    failures = tuple(f"d(d{(sub_index(block.gamma, beta), beta)}) != 0"
                     for beta in d if _compose(d, d, beta, {}))
    return CheckReport(len(d), failures)


def check_homotopy_identity(block: Block) -> CheckReport:
    """dh + hd = delta_{i0}(gamma) id on every basis element of the block,
    checked as del h + h del = D(gamma) id; both sides vanish on admissible
    multidegrees, and this dichotomy is what makes the homology basis exactly
    the admissible symbols."""
    failures = []
    for beta in block.d:
        total = _compose(block.d, block.h, beta, _compose(block.h, block.d, beta, {}))
        _accumulate(total, beta, -block.scale)
        if total:
            failures.append(f"(dh+hd){(sub_index(block.gamma, beta), beta)} != D*id")
    return CheckReport(len(block.d), tuple(failures))


def check_complex(complex_: ReducedComplex, bound: int) -> tuple[CheckReport, CheckReport]:
    """The d^2 = 0 and the homotopy reports on every basis element up to the
    bound, from one walk of the multidegrees that keeps one block at a time."""
    checked, failures = [0, 0], ([], [])
    for gamma in iter_multidegrees(complex_.spec.n, bound):
        block = complex_.block(gamma)
        for k, check in enumerate((check_d_squared, check_homotopy_identity)):
            report = check(block)
            checked[k] += report.checked
            failures[k].extend(report.failures)
    return tuple(CheckReport(c, tuple(f)) for c, f in zip(checked, failures))
