"""Admissible-set enumeration, homology bases and the admissible-set solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qhyperplane.homology
from qhyperplane.homology import (build_report, enumerate_admissible,
                                  homology_basis, one_parameter_admissible,
                                  predicted_dims, scan_admissible)
from qhyperplane.hyperplane import (AlgebraSpec, ScalingAutomorphism, apply_sigma,
                                    automorphism_for_top_class,
                                    canonical_automorphism, commutation_factor,
                                    unit)
from qhyperplane.koszul import ReducedComplex, chain
from qhyperplane.qscalar import all_pairs

Q2 = AlgebraSpec.symbolic(2)
Q3 = AlgebraSpec.symbolic(3)


# -- enumeration -------------------------------------------------------------

def test_admissible_quantum_plane():
    out = enumerate_admissible(Q2, canonical_automorphism(Q2), 4)
    assert out.members == ((0, 0), (1, 1))
    assert out.complete


def test_admissible_identity_at_bound_one():
    spec = AlgebraSpec.with_distinct_primes(3)
    out = enumerate_admissible(spec, ScalingAutomorphism.identity(3), 1)
    assert out.members == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert not out.complete


def test_admissible_identity_includes_all_powers():
    # every pure power of a single generator commutes with itself, so the
    # identity twist admits the whole ray through each unit multidegree
    spec = AlgebraSpec.with_distinct_primes(3)
    out = enumerate_admissible(spec, ScalingAutomorphism.identity(3), 3)
    expected = {(0, 0, 0)}
    for j in (1, 2, 3):
        for t in (1, 2, 3):
            expected.add(tuple(t * x for x in unit(3, j)))
    assert set(out.members) == expected


def test_admissible_single_generator():
    spec = AlgebraSpec.symbolic(1)
    out = enumerate_admissible(spec, canonical_automorphism(spec), 5)
    assert out.members == tuple((t,) for t in range(6))
    assert not out.complete


def test_scan_bound_validation():
    with pytest.raises(ValueError):
        scan_admissible(Q2, canonical_automorphism(Q2), -1)


# -- symbolic completeness analysis -------------------------------------------

def test_symbolic_completeness_canonical():
    sigma = canonical_automorphism(Q3)
    assert enumerate_admissible(Q3, sigma, 3).complete
    assert not enumerate_admissible(Q3, sigma, 2).complete      # (1,1,1) above


def test_symbolic_completeness_identity_is_never_complete():
    assert not enumerate_admissible(Q3, ScalingAutomorphism.identity(3), 4).complete


def test_symbolic_completeness_nonunit_rational_twist():
    out = enumerate_admissible(Q2, ScalingAutomorphism.from_rationals([2, 3]), 4)
    assert out.members == ((0, 0),)
    assert out.complete


def test_symbolic_completeness_solved_top_twist():
    alpha = (1, 0, 2)
    sigma = automorphism_for_top_class(Q3, alpha)
    out = enumerate_admissible(Q3, sigma, 6)
    assert out.members == ((0, 0, 0), (2, 1, 3))
    assert out.complete
    assert not enumerate_admissible(Q3, sigma, 5).complete


# -- one-parameter solver -------------------------------------------------------

def test_one_parameter_n2():
    out = one_parameter_admissible(2, 6)
    assert out.members == ((0, 0), (1, 1))
    assert out.complete


def test_one_parameter_top_solution_every_n():
    for n in (1, 2, 3, 4, 5):
        assert (1,) * n in one_parameter_admissible(n, n).members


def test_one_parameter_single_generator():
    out = one_parameter_admissible(1, 4)
    assert out.members == ((0,), (1,), (2,), (3,), (4,))
    assert not out.complete


def test_one_parameter_matches_scan():
    for n in (1, 2, 3, 4):
        spec = AlgebraSpec.one_parameter(n, 3)
        sigma = canonical_automorphism(spec)
        for bound in (0, 1, 4, 8):
            assert one_parameter_admissible(n, bound).members == \
                scan_admissible(spec, sigma, bound)


def test_uniform_numeric_values_match_scan():
    spec = AlgebraSpec.one_parameter(3, 3)
    sigma = canonical_automorphism(spec)
    smart = enumerate_admissible(spec, sigma, 8)
    assert smart.members == scan_admissible(spec, sigma, 8)
    # the infinite middle ray makes completeness impossible here
    assert not smart.complete
    n4 = enumerate_admissible(AlgebraSpec.one_parameter(4, 3),
                              canonical_automorphism(AlgebraSpec.one_parameter(4, 3)), 8)
    assert n4.complete


# -- the solver against the scan -------------------------------------------------

VALUES = [Fraction(v) for v in (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3),
                                Fraction(6, 35))]


@st.composite
def solver_inputs(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        spec = AlgebraSpec.symbolic(n)
    else:
        spec = AlgebraSpec.numeric(n, {pair: draw(st.sampled_from(VALUES))
                                       for pair in all_pairs(n)})
    if draw(st.booleans()):
        sigma = ScalingAutomorphism(tuple(draw(st.sampled_from(VALUES))
                                          for _ in range(n)))
    else:
        sigma = automorphism_for_top_class(
            spec, tuple(draw(st.integers(0, 2)) for _ in range(n)))
    return spec, sigma, draw(st.integers(0, 6))


@settings(deadline=None)
@given(solver_inputs())
def test_solver_matches_scan(inputs):
    spec, sigma, bound = inputs
    out = enumerate_admissible(spec, sigma, bound)
    assert out.members == scan_admissible(spec, sigma, bound)
    if out.complete:
        assert scan_admissible(spec, sigma, bound + 4) == out.members


def test_distinct_primes_are_complete():
    spec = AlgebraSpec.with_distinct_primes(3)
    out = enumerate_admissible(spec, canonical_automorphism(spec), 6)
    assert out.members == ((0, 0, 0), (1, 1, 1))
    assert out.complete


def test_hopeless_supports_are_not_solved(monkeypatch):
    # with the canonical twist, p_i carries every q_ki; on a smaller support
    # some row reads 0 = nonzero, which needs no elimination
    calls = []
    real = qhyperplane.homology._gauss_jordan
    monkeypatch.setattr(qhyperplane.homology, "_gauss_jordan",
                        lambda *args: calls.append(args) or real(*args))
    spec = AlgebraSpec.with_distinct_primes(6)
    out = enumerate_admissible(spec, canonical_automorphism(spec), 6)
    assert out.members == ((0,) * 6, (1,) * 6)
    assert out.complete
    assert len(calls) < 2 ** 6


def test_signs_close_a_ray_the_exponents_allow():
    # p_2 = -1 has the exponents of 1, so the exponents alone admit the ray
    # through (0, 1); its signs never match
    out = enumerate_admissible(Q2, ScalingAutomorphism.from_rationals([3, -1]), 6)
    assert out.members == ((0, 0),)
    assert out.complete


def test_signs_and_integrality_repeat_with_the_period():
    # on (1, 2, 3) the solutions are gamma_3 = 1 and 2 gamma_1 + gamma_2 = 9,
    # and the signs of p_1, p_2 ask for gamma_2 and gamma_1 odd: only
    # gamma_2 = 3 (mod 4) qualifies, which one period of length 4 finds
    spec = AlgebraSpec.numeric(3, {(1, 2): -1, (1, 3): 4, (2, 3): 2})
    sigma = ScalingAutomorphism.from_rationals([Fraction(-1, 4), Fraction(-1, 2), 512])
    out = enumerate_admissible(spec, sigma, 9)
    assert out.members == ((0, 0, 0), (3, 3, 1), (1, 7, 1))
    assert out.complete
    assert not enumerate_admissible(spec, sigma, 0).complete


def test_two_free_variables_are_never_complete():
    # q = -1 leaves no exponent rows on the support (1, 2): every (odd, odd)
    spec = AlgebraSpec.one_parameter(2, -1)
    out = enumerate_admissible(spec, canonical_automorphism(spec), 4)
    assert out.members == ((0, 0), (1, 1), (1, 3), (3, 1))
    assert not out.complete


def test_long_bounded_family_is_not_scanned(monkeypatch):
    # one segment of solutions reaches degree 10**4 + 2; the solver must
    # look at one period of it, not all of it
    spec = AlgebraSpec.one_parameter(3, 2)
    sigma = ScalingAutomorphism(tuple(commutation_factor(spec, (1, 10**4, 1), i)
                                      for i in (1, 2, 3)))
    calls = []
    real = qhyperplane.homology.is_admissible
    monkeypatch.setattr(qhyperplane.homology, "is_admissible",
                        lambda *args: calls.append(args) or real(*args))
    out = enumerate_admissible(spec, sigma, 6)
    assert out.members == tuple((0, t, 0) for t in range(7))
    assert not out.complete
    assert len(calls) <= 100


# -- homology bases ----------------------------------------------------------------

def test_quantum_plane_basis_by_degree():
    sigma = canonical_automorphism(Q2)
    assert homology_basis(Q2, sigma, 0, 6).generators == (((0, 0), (0, 0)),
                                                          ((1, 1), (0, 0)))
    assert homology_basis(Q2, sigma, 1, 6).generators == (((0, 1), (1, 0)),
                                                          ((1, 0), (0, 1)))
    assert homology_basis(Q2, sigma, 2, 6).generators == (((0, 0), (1, 1)),)


def test_quantum_plane_degree_validation():
    with pytest.raises(ValueError):
        homology_basis(Q2, canonical_automorphism(Q2), 3, 6)


def test_one_parameter_top_class_unique():
    for n in (2, 3, 4):
        spec = AlgebraSpec.one_parameter(n, 3)
        sigma = canonical_automorphism(spec)
        top = homology_basis(spec, sigma, n, n + 3)
        assert top.generators == (((0,) * n, (1,) * n),)


def test_identity_twist_slices_at_bound_one():
    spec = AlgebraSpec.with_distinct_primes(3)
    ident = ScalingAutomorphism.identity(3)
    report = build_report(spec, ident, 1)
    assert report.betti_list() == [4, 3, 0, 0]
    assert homology_basis(spec, ident, 1, 1).generators == (
        ((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (1, 0, 0)))


def test_identity_twist_no_homology_above_degree_one():
    for n_generators in (2, 3):
        spec = AlgebraSpec.with_distinct_primes(n_generators)
        ident = ScalingAutomorphism.identity(n_generators)
        for bound in (2, 4, 6):
            report = build_report(spec, ident, bound)
            for n in range(2, n_generators + 1):
                assert report.betti(n) == 0


def test_generators_are_cycles():
    cases = [(Q2, canonical_automorphism(Q2)),
             (AlgebraSpec.one_parameter(3, 3), canonical_automorphism(AlgebraSpec.one_parameter(3, 3))),
             (AlgebraSpec.with_distinct_primes(2), ScalingAutomorphism.identity(2))]
    for spec, sigma in cases:
        complex_ = ReducedComplex(spec, sigma)
        report = build_report(spec, sigma, 4)
        for s in report.slices:
            for generator in s.generators:
                assert complex_.differential(chain({generator: 1})) == {}


def test_generators_are_sigma_invariant():
    for spec in (Q2, Q3):
        sigma = canonical_automorphism(spec)
        report = build_report(spec, sigma, 4)
        for s in report.slices:
            for alpha, beta in s.generators:
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                assert apply_sigma(sigma, gamma) == 1


def test_grading_totals_match_betti():
    spec = AlgebraSpec.one_parameter(3, 3)
    report = build_report(spec, canonical_automorphism(spec), 5)
    for s in report.slices:
        assert sum(count for _, count in s.grading) == s.betti


def test_report_metadata():
    report = build_report(Q2, canonical_automorphism(Q2), 6)
    d = report.to_dict()
    assert d["mode"] == "symbolic" and d["bound"] == 6
    assert d["betti"] == [2, 2, 1]
    assert d["truncated"] is False
    assert report.betti(5) == 0


def test_predicted_dims_track_the_basis():
    spec = AlgebraSpec.one_parameter(3, 3)
    sigma = canonical_automorphism(spec)
    assert predicted_dims(spec, sigma, (1, 1, 1), 3) == 1
    assert predicted_dims(spec, sigma, (1, 1, 1), 1) == 3
    assert predicted_dims(spec, sigma, (1, 0, 0), 0) == 0
    assert predicted_dims(spec, sigma, (0, 2, 0), 1) == 1
