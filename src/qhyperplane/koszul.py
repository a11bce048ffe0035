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

The checks run in ints.  With beta the target of a move of slot i (beta_i
= 0) and q_ik the stored q of the pair {i, k}, s = (-1)^{|beta below i|}
A_i(gamma) prod_{k in beta} q_ik, where A_i(gamma) = prod_{k > i}
q_ik^{-gamma_k} is a constant of the block.  Write q_ik = a_ik / b_ik in
lowest terms, a_ik carrying the symbol's monomial in symbolic mode, and
scale slot i's moves by lambda_i = B_i / A_i(gamma), B_i = prod b_ik over k
in supp gamma but i: the del weight becomes +-prod_{k in beta} a_ik prod_{k
not in beta} b_ik.  Scaling h by mu = A_{i0}(gamma) prod a_{i0 k} makes its
weight the mirror +-prod_{k in beta} b_{i0 k} prod_{k not in beta} a_{i0 k},
and D(gamma) becomes D(gamma) lambda_{i0} mu = D(gamma) prod a_{i0 k} b_{i0 k}.
Each target of a composite is reached only by paths that pick up the same
nonzero constant, lambda_i lambda_j for d^2 and lambda_i mu for dh + hd, so
an element fails a scaled identity exactly when it fails the unscaled one.
A weight is a pair (c, m) of an int and a packed monomial, 0 in numeric
mode, and a composite sums the products of the c keyed by (target beta, sum
of the m).  F(gamma) is decided in ints too: p_i = c_i(gamma) when the
cross-multiplied a_ik, b_ik and the p_i's own pair agree and so do the
monomials, all read once per complex.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod
from operator import sub

from .hyperplane import (AlgebraSpec, MultiIndex, ScalingAutomorphism, exterior_under,
                         iter_multidegrees, support)
from .qscalar import Monomial, packed

BlockMap = dict[MultiIndex, list[tuple[MultiIndex, int, Monomial]]]


class CheckReport(namedtuple("CheckReport", "checked failures")):
    """The count of basis elements checked and a tuple of failure messages."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


class Block(namedtuple("Block", "gamma d h scale")):
    """The complex over one multidegree gamma, where a basis element is its
    exterior part beta: d holds the scaled moves del and h the scaled
    homotopy (slot i0 only), each mapping beta, in exterior_under order, to
    its (target beta, c, m) weights; scale is the scaled D(gamma) as (c, m),
    (0, 0) on the admissible multidegrees."""

    __slots__ = ()


class ReducedComplex:
    """The blocks of del and h for one (Q, sigma), built afresh on each call."""

    def __init__(self, spec: AlgebraSpec, sigma: ScalingAutomorphism):
        if sigma.n != spec.n:
            raise ValueError("automorphism size disagrees with the algebra")
        self.spec = spec
        self.sigma = sigma
        self._q = {ik: (r.numerator, r.denominator, m) for ik, c in spec.q.items()
                   for r, m in [packed(c)]}
        self._p = [(r.numerator, r.denominator, m) for r, m in map(packed, sigma.p)]

    def block(self, gamma: MultiIndex) -> Block:
        """Every scaled weight of gamma's block: del moves the failing slots i
        only, as delta_i(gamma) is zero on the others, and h the first of them
        only, its weight the scale over the del weight of the same move."""
        positions, failing, betas = support(gamma), [], exterior_under(gamma)
        d: BlockMap = {beta: [] for beta in betas}
        h: BlockMap = {beta: [] for beta in betas}
        scale = (0, 0)
        for i in positions:
            ab = [(k - 1, *self._q[min(i, k), max(i, k)]) for k in positions if k != i]
            num, den, mono = self._p[i - 1]     # to be p_i / c_i(gamma) = num / den q^mono
            for k, a, b, m in ab:   # c_i(gamma) has q_ki^gamma_k below i, q_ik^-gamma_k above
                e = gamma[k]
                num, den, mono = ((num * a ** e, den * b ** e, mono + e * m) if k >= i
                                  else (num * b ** e, den * a ** e, mono - e * m))
            if num == den and not mono:
                continue    # delta_i(gamma) = 0: x_i sigma-commutes with x^gamma
            failing.append(i)
            if i == failing[0]:
                scale = (prod(a * b for _, a, b, _ in ab), sum(m for *_, m in ab))
            # the sign (-1)^{|beta below i|}, one factor -1 per slot below i
            ab = [(k, -a if k < i - 1 else a, b, m) for k, a, b, m in ab]
            for beta in betas:
                if not beta[i - 1]:
                    c, m = 1, 0
                    for k, a, b, mk in ab:
                        if beta[k]:
                            c, m = c * a, m + mk
                        else:
                            c *= b
                    up = beta[:i - 1] + (1,) + beta[i:]
                    d[up].append((beta, c, m))
                    if i == failing[0]:
                        h[beta].append((up, scale[0] // c, scale[1] - m))
        return Block(gamma, d, h, scale)


Terms = dict[tuple[MultiIndex, Monomial], int]


def _compose(first: BlockMap, second: BlockMap, beta: MultiIndex, out: Terms) -> Terms:
    """Add second(first(beta)) to out inside one block, zero sums kept."""
    for middle, c, m in first[beta]:
        for target, c2, m2 in second[middle]:
            key = target, m + m2
            out[key] = out.get(key, 0) + c * c2
    return out


# ---------------------------------------------------------------------------
# exhaustive checks

def check_d_squared(block: Block) -> CheckReport:
    """d(d x) = 0 on every basis element of the block, checked as
    del(del x) = 0."""
    d = block.d
    failures = tuple(f"d(d{(tuple(map(sub, block.gamma, beta)), beta)}) != 0"
                     for beta in d if any(_compose(d, d, beta, {}).values()))
    return CheckReport(len(d), failures)


def check_homotopy_identity(block: Block) -> CheckReport:
    """dh + hd = delta_{i0}(gamma) id on every basis element of the block,
    checked as del h + h del = D(gamma) id, scaled; both sides vanish on
    admissible multidegrees, and this dichotomy is what makes the homology
    basis exactly the admissible symbols."""
    failures = []
    c, m = block.scale
    for beta in block.d:
        total = _compose(block.d, block.h, beta, _compose(block.h, block.d, beta, {}))
        total[beta, m] = total.get((beta, m), 0) - c
        if any(total.values()):
            failures.append(f"(dh+hd){(tuple(map(sub, block.gamma, beta)), beta)} != D*id")
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
