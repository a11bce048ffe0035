"""Admissible-set enumeration, homology bases and the admissible-set solver."""

import json
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from admissible_reference import reference_admissible, reference_coprime_base
from algebras import apply_sigma, generic_check, one_parameter
from koszul_reference import differential
import qhyperplane.homology
import qhyperplane.hyperplane
from qhyperplane.cli import EXIT_OK, main
from qhyperplane.homology import (build_report, enumerate_admissible,
                                  one_parameter_admissible, predicted_dims,
                                  scan_admissible)
from qhyperplane.hyperplane import (AlgebraSpec, ScalingAutomorphism,
                                    automorphism_for_top_class,
                                    canonical_automorphism, commutation_factor,
                                    is_generic, unit)
from qhyperplane.koszul import ReducedComplex
from qhyperplane.qscalar import all_pairs, distinct_primes

Q2 = AlgebraSpec.symbolic(2)
Q3 = AlgebraSpec.symbolic(3)


def primes_spec(n):
    """The numeric algebra with distinct primes for the q_ij: the generic regime."""
    return AlgebraSpec.numeric(n, distinct_primes(n))


# -- enumeration -------------------------------------------------------------

def test_admissible_quantum_plane():
    out = enumerate_admissible(Q2, canonical_automorphism(Q2), 4)
    assert out.members == ((0, 0), (1, 1))
    assert out.complete


def test_admissible_identity_at_bound_one():
    spec = primes_spec(3)
    out = enumerate_admissible(spec, ScalingAutomorphism.identity(3), 1)
    assert out.members == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert not out.complete


def test_admissible_identity_includes_all_powers():
    # every pure power of a single generator commutes with itself, so the
    # identity twist admits the whole ray through each unit multidegree
    spec = primes_spec(3)
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
        spec = one_parameter(n, 3)
        sigma = canonical_automorphism(spec)
        for bound in (0, 1, 4, 8):
            assert one_parameter_admissible(n, bound).members == \
                scan_admissible(spec, sigma, bound)


def test_uniform_numeric_values_match_scan():
    spec = one_parameter(3, 3)
    sigma = canonical_automorphism(spec)
    smart = enumerate_admissible(spec, sigma, 8)
    assert smart.members == scan_admissible(spec, sigma, 8)
    # the infinite middle ray makes completeness impossible here
    assert not smart.complete
    n4 = enumerate_admissible(one_parameter(4, 3),
                              canonical_automorphism(one_parameter(4, 3)), 8)
    assert n4.complete


# -- the solver against the scan -------------------------------------------------

VALUES = [Fraction(v) for v in (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3),
                                Fraction(6, 35))]


@st.composite
def specs(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return AlgebraSpec.symbolic(n)
    return AlgebraSpec.numeric(n, {pair: draw(st.sampled_from(VALUES))
                                   for pair in all_pairs(n)})


@st.composite
def solver_inputs(draw):
    spec = draw(specs())
    if draw(st.booleans()):
        sigma = ScalingAutomorphism(tuple(draw(st.sampled_from(VALUES))
                                          for _ in range(spec.n)))
    else:
        sigma = automorphism_for_top_class(
            spec, tuple(draw(st.integers(0, 2)) for _ in range(spec.n)))
    return spec, sigma, draw(st.integers(0, 6))


@settings(deadline=None)
@given(solver_inputs())
def test_solver_matches_scan(inputs):
    spec, sigma, bound = inputs
    out = enumerate_admissible(spec, sigma, bound)
    assert out.members == scan_admissible(spec, sigma, bound)
    if out.complete:
        assert scan_admissible(spec, sigma, bound + 4) == out.members


@st.composite
def walk_inputs(draw):
    """Up to six generators, symbolic, from VALUES or distinct primes, under
    the canonical, identity, solve-top or an explicit twist; bound 0-8."""
    n = draw(st.integers(1, 6))
    spec = draw(st.one_of(
        st.just(AlgebraSpec.symbolic(n)), st.just(primes_spec(n)),
        st.fixed_dictionaries({pair: st.sampled_from(VALUES) for pair in all_pairs(n)})
        .map(lambda q: AlgebraSpec.numeric(n, q))))
    sigma = draw(st.one_of(
        st.just(canonical_automorphism(spec)), st.just(ScalingAutomorphism.identity(n)),
        st.tuples(*[st.integers(0, 2)] * n).map(
            lambda alpha: automorphism_for_top_class(spec, alpha)),
        st.tuples(*[st.sampled_from(VALUES)] * n).map(ScalingAutomorphism)))
    return spec, sigma, draw(st.integers(0, 8))


@settings(deadline=None)
@given(walk_inputs())
def test_walk_matches_the_by_size_solver(inputs):
    # members and completeness both, exactly, with no bound on how far a
    # complete set is checked
    assert enumerate_admissible(*inputs) == reference_admissible(*inputs)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generic")


@settings(deadline=None)
@given(specs(), st.integers(2, 8))
def test_is_generic_matches_scan(workdir, spec, bound):
    identity = ScalingAutomorphism.identity(spec.n)
    witness = next((g for g in scan_admissible(spec, identity, bound)
                    if sum(map(bool, g)) >= 2), None)
    assert is_generic(spec, bound) == witness
    document = generic_check(spec, bound, workdir)
    assert document["witness"] == (list(witness) if witness else None)
    assert document["generic"] == (witness is None)
    assert document["structural"] == (spec.mode == "symbolic")


def test_generic_check_skips_the_multidegree_scan(monkeypatch, tmp_path):
    calls = []
    for module in (qhyperplane.homology, qhyperplane.hyperplane):
        real = module.is_admissible
        monkeypatch.setattr(module, "is_admissible",
                            lambda *args, real=real: calls.append(args) or real(*args))
    out = tmp_path / "generic.json"
    argv = ["generic-check", "--n", "6", "--auto-primes", "--bound", "11", "--out", str(out)]
    assert main(argv) == EXIT_OK
    document = json.loads(out.read_text())
    assert document["generic"] and document["witness"] is None
    assert len(calls) < 200


def test_distinct_primes_are_complete():
    spec = primes_spec(3)
    out = enumerate_admissible(spec, canonical_automorphism(spec), 6)
    assert out.members == ((0, 0, 0), (1, 1, 1))
    assert out.complete
    # only the support of size 3 > bound 2 holds (1, 1, 1), and it must
    # still be solved while completeness is unsettled
    assert not enumerate_admissible(spec, canonical_automorphism(spec), 2).complete


def count_calls(monkeypatch, name):
    """Record the arguments of each call to the homology function name."""
    calls = []
    real = getattr(qhyperplane.homology, name)
    monkeypatch.setattr(qhyperplane.homology, name,
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_hopeless_supports_are_not_solved(monkeypatch):
    # with the canonical twist, p_i carries every q_ki; on a smaller support
    # some row reads 0 = nonzero, so the support is never solved
    calls = count_calls(monkeypatch, "_solve_support")
    spec = primes_spec(6)
    out = enumerate_admissible(spec, canonical_automorphism(spec), 6)
    assert out.members == ((0,) * 6, (1,) * 6)
    assert out.complete
    assert len(calls) < 2 ** 6


def test_supports_past_the_bound_are_skipped_once_incomplete(monkeypatch):
    # the identity twist admits every power of one generator, so completeness
    # is settled false on the supports of size 1; no support of size 3 or
    # more holds a member of degree <= 2
    calls = count_calls(monkeypatch, "_solve_support")
    spec, identity = primes_spec(8), ScalingAutomorphism.identity(8)
    out = enumerate_admissible(spec, identity, 2)
    assert len(calls) <= 1 + 8 + 28
    assert out.members == scan_admissible(spec, identity, 2)
    assert not out.complete


@pytest.mark.parametrize("n", [12, 20])
def test_pruned_subtrees_are_never_extended(monkeypatch, n):
    # under the canonical twist a support that skips a generator below its
    # largest has a row 0 = nonzero on every column it can still add, so only
    # the supports {1, ..., k} are extended, not the 2^n a by-size visit needs
    calls = count_calls(monkeypatch, "_extend")
    spec = primes_spec(n)
    out = enumerate_admissible(spec, canonical_automorphism(spec), 2)
    assert out.members == ((0,) * n,)
    assert not out.complete
    assert len(calls) <= n * (n + 1) // 2


def test_each_parameter_reaches_the_coprime_base_once(monkeypatch):
    # q_ki for k > i is q_ik inverted, with the same integers, so the
    # solver's set-up hands the coprime base each integer once: at N = 6 under
    # the canonical twist the q_ij and the p_i have 23 distinct integers > 1,
    # which the directed pairs handed over 40 times
    seen = []
    real = qhyperplane.homology._coprime_base
    monkeypatch.setattr(qhyperplane.homology, "_coprime_base",
                        lambda values: seen.append(list(values)) or real(seen[-1]))
    spec = primes_spec(6)
    enumerate_admissible(spec, canonical_automorphism(spec), 2)
    [values] = seen
    assert len(values) == len(set(values))
    assert len([x for x in values if x > 1]) == 23


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 10 ** 6),
                          st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 2 ** 61 - 1]),
                                   max_size=5).map(prod)), max_size=12))
def test_coprime_base_is_the_scanning_one(values):
    # testing each value against the product of the base first gives the
    # base the whole scan gave: pairwise coprime, and every value a product
    # of its elements
    base = qhyperplane.homology._coprime_base(values)
    assert base == reference_coprime_base(values)
    assert all(gcd(a, b) == 1 for a, b in combinations(base, 2))
    for x in values:
        for b in base:
            while x > 1 and x % b == 0:
                x //= b
        assert x <= 1


def test_coprime_base_of_many_parameters():
    # N = 20 under the canonical twist and the identity: 190 distinct primes,
    # and under the canonical twist their products p_i
    spec = primes_spec(20)
    for sigma in (canonical_automorphism(spec), ScalingAutomorphism.identity(20)):
        values = {abs(x) for c in (*spec.q.values(), *sigma.p) for x in c.as_integer_ratio()}
        base = qhyperplane.homology._coprime_base(values)
        assert sorted(base) == sorted(reference_coprime_base(values))
        assert sorted(base) == sorted(int(c) for c in spec.q.values())


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
    spec = one_parameter(2, -1)
    out = enumerate_admissible(spec, canonical_automorphism(spec), 4)
    assert out.members == ((0, 0), (1, 1), (1, 3), (3, 1))
    assert not out.complete


def test_long_bounded_family_is_not_scanned(monkeypatch):
    # one segment of solutions reaches degree 10**4 + 2; the solver must
    # look at one period of it, not all of it
    spec = one_parameter(3, 2)
    sigma = ScalingAutomorphism(tuple(commutation_factor(spec, (1, 10**4, 1), i)
                                      for i in (1, 2, 3)))
    calls = count_calls(monkeypatch, "is_admissible")
    out = enumerate_admissible(spec, sigma, 6)
    assert out.members == tuple((0, t, 0) for t in range(7))
    assert not out.complete
    assert len(calls) <= 100


# -- homology bases ----------------------------------------------------------------

def test_quantum_plane_basis_by_degree():
    slices = build_report(Q2, canonical_automorphism(Q2), 6).slices
    assert slices[0].generators == (((0, 0), (0, 0)), ((1, 1), (0, 0)))
    assert slices[1].generators == (((0, 1), (1, 0)), ((1, 0), (0, 1)))
    assert slices[2].generators == (((0, 0), (1, 1)),)


def test_one_parameter_top_class_unique():
    for n in (2, 3, 4):
        spec = one_parameter(n, 3)
        sigma = canonical_automorphism(spec)
        top = build_report(spec, sigma, n + 3).slices[n]
        assert top.generators == (((0,) * n, (1,) * n),)


def test_identity_twist_slices_at_bound_one():
    spec = primes_spec(3)
    ident = ScalingAutomorphism.identity(3)
    report = build_report(spec, ident, 1)
    assert report.betti_list() == [4, 3, 0, 0]
    assert report.slices[1].generators == (
        ((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (1, 0, 0)))


def test_identity_twist_no_homology_above_degree_one():
    for n_generators in (2, 3):
        spec = primes_spec(n_generators)
        ident = ScalingAutomorphism.identity(n_generators)
        for bound in (2, 4, 6):
            report = build_report(spec, ident, bound)
            assert report.betti_list()[2:] == [0] * (n_generators - 1)


def test_generators_are_cycles():
    cases = [(Q2, canonical_automorphism(Q2)),
             (one_parameter(3, 3), canonical_automorphism(one_parameter(3, 3))),
             (primes_spec(2), ScalingAutomorphism.identity(2))]
    for spec, sigma in cases:
        complex_ = ReducedComplex(spec, sigma)
        report = build_report(spec, sigma, 4)
        for s in report.slices:
            for generator in s.generators:
                assert differential(complex_, {generator: 1}) == {}


def test_generators_are_sigma_invariant():
    for spec in (Q2, Q3):
        sigma = canonical_automorphism(spec)
        report = build_report(spec, sigma, 4)
        for s in report.slices:
            for alpha, beta in s.generators:
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                assert apply_sigma(sigma, gamma) == 1


def test_grading_totals_match_betti():
    spec = one_parameter(3, 3)
    report = build_report(spec, canonical_automorphism(spec), 5)
    for s in report.slices:
        assert sum(count for _, count in s.grading) == s.betti


def test_report_metadata(tmp_path):
    report = build_report(Q2, canonical_automorphism(Q2), 6)
    assert report.betti_list() == [2, 2, 1]
    assert report.truncated is False
    assert [s.n for s in report.slices] == [0, 1, 2]
    out = tmp_path / "homology.json"
    assert main(["homology", "--symbolic", "--n", "2", "--bound", "6",
                 "--out", str(out)]) == EXIT_OK
    d = json.loads(out.read_text())
    assert d["mode"] == "symbolic" and d["bound"] == 6
    assert d["betti"] == [2, 2, 1]
    assert d["truncated"] is False


def test_predicted_dims_track_the_basis():
    spec = one_parameter(3, 3)
    predicted = predicted_dims(build_report(spec, canonical_automorphism(spec), 3))
    assert predicted[(1, 1, 1), 3] == 1
    assert predicted[(1, 1, 1), 1] == 3
    assert ((1, 0, 0), 0) not in predicted
    assert predicted[(0, 2, 0), 1] == 1
