"""Test-only chain maps of the reduced Koszul complex, read off its
per-multidegree blocks and applied to a chain, a dict from basis element
(alpha, beta) to scalar: the differential d = sum delta_i(gamma) del_i, which
weighs each move del_i of a block by the commutation defect delta_i(gamma) =
1 - p_i / c_i(gamma), and the homotopy h, which moves slot i0 = min F(gamma)
only.  A defect is a sum, so every coefficient here is a RefPolynomial.  The
program walks once, one block at a time, checks del^2 = 0 and del h + h del =
D(gamma) id on each block as it builds it, and never forms a defect or
applies these maps to a chain; the tests do, and compare them with the
per-element reference in test_koszul.

A block holds its weights scaled to int pairs (c, m), c * q^m: slot i's del
moves times lambda_i(gamma) and the h moves times mu(gamma), and D(gamma)
times lambda_{i0}(gamma) mu(gamma).  ``constants`` computes these from the
algebra alone, and the maps here divide them back out."""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import sub

from qscalar_reference import RefPolynomial
from qhyperplane.hyperplane import add_index, commutation_factor, support
from qhyperplane.koszul import ReducedComplex
from qhyperplane.qscalar import QMonomial, term


def ref(value) -> RefPolynomial:
    """A scalar, a Fraction or a QMonomial, as a RefPolynomial."""
    if isinstance(value, RefPolynomial):
        return value
    return RefPolynomial.term(*term(value))


def weight(c: int, m: int) -> RefPolynomial:
    """A block's weight (c, m), c * q^m with m packed, as a RefPolynomial."""
    return ref(QMonomial(m)) * c


def sub_index(a, b):
    out = tuple(map(sub, a, b))
    if min(out) < 0:
        raise ValueError(f"{a} - {b} leaves the nonnegative orthant")
    return out


def moved_slot(beta, target) -> int:
    """The slot a move between two exterior parts fills or empties."""
    return next(k for k, (b, t) in enumerate(zip(beta, target), start=1) if b != t)


def constants(complex_: ReducedComplex, gamma, i: int) -> tuple[RefPolynomial, RefPolynomial]:
    """(lambda_i(gamma), mu_i(gamma)).  With q_ik the stored q of the pair
    {i, k}, written a_ik / b_ik with b_ik the denominator of its coefficient,
    and A_i(gamma) = prod_{k > i} q_ik^{-gamma_k}: lambda_i = B_i / A_i(gamma),
    B_i = prod b_ik, and mu_i = A_i(gamma) prod a_ik, both over k in supp gamma
    but i.  The block scales slot i's del moves by lambda_i, and h, which moves
    slot i0 alone, by mu_{i0}."""
    spec = complex_.spec
    q = [ref(spec.q_power(min(i, k), max(i, k))) for k in support(gamma) if k != i]
    b = prod(qk.single()[0].denominator for qk in q)
    a = prod((qk * qk.single()[0].denominator for qk in q), start=ref(Fraction(1)))
    above = ref(commutation_factor(spec, (0,) * i + tuple(gamma[i:]), i))
    return above ** -1 * b, above * a


def defect(complex_: ReducedComplex, gamma, i: int) -> RefPolynomial:
    """delta_i(gamma) = 1 - p_i / c_i(gamma), zero exactly where x_i
    sigma-commutes with x^gamma."""
    c = commutation_factor(complex_.spec, gamma, i)
    return 1 - ref(complex_.sigma.p[i - 1]) * ref(c ** -1)


def add_term(out: dict, key, value) -> None:
    merged = out.get(key, 0) + value
    if merged:
        out[key] = merged
    else:
        out.pop(key, None)


def differential(complex_: ReducedComplex, chain: dict) -> dict:
    """d: each move beta -> beta - e_i of a block weighted by delta_i(gamma)."""
    return _apply(complex_, chain, True)


def homotopy(complex_: ReducedComplex, chain: dict) -> dict:
    """h: x_{i0} of x^alpha, i0 = min F(gamma), moves back into its empty
    slot i0 with weight sign * c_{i0}(u)^{-1}, and no other slot moves; it
    contracts d up to the factor delta_{i0}(gamma)."""
    return _apply(complex_, chain, False)


def _apply(complex_: ReducedComplex, chain: dict, down: bool) -> dict:
    out: dict = {}
    for (alpha, beta), coeff in chain.items():
        gamma = add_index(alpha, beta)
        block = complex_.block(gamma)
        for target, c, m in (block.d if down else block.h)[beta]:
            i = moved_slot(beta, target)
            lam, mu = constants(complex_, gamma, i)
            w = weight(c, m) * ref(coeff) * (lam if down else mu) ** -1
            if down:
                w = w * defect(complex_, gamma, i)
            add_term(out, (sub_index(gamma, target), target), w)
    return out
