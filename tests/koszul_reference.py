"""Test-only chain maps of the reduced Koszul complex, read off its
per-multidegree blocks and applied to a chain, a dict from basis element
(alpha, beta) to scalar: the differential d = sum delta_i(gamma) del_i, which
weighs each move del_i of a block by the commutation defect delta_i(gamma) =
1 - p_i / c_i(gamma), and the homotopy h, which moves slot i0 = min F(gamma)
only.  A defect is a sum, so every coefficient here is a RefPolynomial.  The
program walks once, one block at a time, checks del^2 = 0 and del h + h del =
D(gamma) id on each block as it builds it, and never forms a defect or
applies these maps to a chain; the tests do, and compare them with the
per-element reference in test_koszul."""

from __future__ import annotations

from qscalar_reference import RefPolynomial
from qhyperplane.hyperplane import add_index, commutation_factor, sub_index
from qhyperplane.koszul import ReducedComplex
from qhyperplane.qscalar import term


def ref(value) -> RefPolynomial:
    """A scalar, a Fraction or a QMonomial, as a RefPolynomial."""
    if isinstance(value, RefPolynomial):
        return value
    return RefPolynomial.term(*term(value))


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
        for target, w in (block.d if down else block.h)[beta]:
            w = ref(w) * ref(coeff)
            if down:
                i = next(k for k, (b, t) in enumerate(zip(beta, target), start=1) if b != t)
                w = w * defect(complex_, gamma, i)
            add_term(out, (sub_index(gamma, target), target), w)
    return out
