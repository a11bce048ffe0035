"""Test-only chain maps of the reduced Koszul complex, read off its
per-multidegree blocks: the differential d and the homotopy h scaled by
D(gamma), applied to a chain, a dict from basis element (alpha, beta) to
scalar.  The program checks d^2 = 0 and dh + hd = D(gamma) id block by
block and never applies these maps to a chain; the tests do, and compare
them with the per-element reference in test_koszul."""

from __future__ import annotations

from qhyperplane.hyperplane import add_index, sub_index
from qhyperplane.koszul import ReducedComplex, _accumulate


def differential(complex_: ReducedComplex, chain: dict) -> dict:
    return _apply(complex_, chain, lambda block: block.d)


def homotopy(complex_: ReducedComplex, chain: dict) -> dict:
    """D(gamma) times the contracting homotopy, D(gamma) = delta_{i0}(gamma):
    x_{i0} of x^alpha, i0 = min F(gamma), moves back into its empty slot i0
    with weight sign * c_{i0}(u)^{-1}, and no other slot moves."""
    return _apply(complex_, chain, lambda block: block.h)


def _apply(complex_: ReducedComplex, chain: dict, moves) -> dict:
    out: dict = {}
    for (alpha, beta), coeff in chain.items():
        gamma = add_index(alpha, beta)
        for target, w in moves(complex_.block(gamma))[beta]:
            _accumulate(out, (sub_index(gamma, target), target), w * coeff)
    return out
