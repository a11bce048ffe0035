"""Two verify runs related by a symmetry of the input must report the same
dimensions, cell by cell, on both routes.  Each run goes through cli.main,
and the cells of the two --out reports are compared, so the shared input
path is inside the test: argument parsing, RunConfig.build_spec, the twist
constructors and the specialization.  A fault there leaves the two routes of
one run in agreement, which is why agreement cannot catch it.

- Relabelling: for a permutation pi of the generators, q'_{pi(i) pi(j)} =
  q_ij (stored as 1/q_ij when pi reverses the pair) and p'_{pi(i)} = p_i give
  dim'(pi.gamma, n) = dim(gamma, n), where (pi.gamma)_{pi(i)} = gamma_i.
- Opposite algebra: inverting every q_ij and every p_i keeps every
  dimension.  HH(A, A_sigma) is HH(A^op, (A_sigma)^op), and (A_sigma)^op is
  A^op with sigma acting on the other side, isomorphic to A^op twisted by
  sigma^-1; A^op is the hyperplane with every q_ij inverted.

A random explicit p leaves almost no multidegree admissible, and so almost
nothing to compare, so the twists drawn are the canonical one and the
identity, which map to themselves under both symmetries, and an explicit p
tied to q as p_i = prod_k q_ki^e_ik.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from qhyperplane.cli import main
from qhyperplane.qscalar import all_pairs

Q_VALUES = [1, -1, 2, -2, Fraction(1, 2), 3, Fraction(2, 3), Fraction(-1, 3)]


def cells(n, q, twist, p, bound):
    """{(gamma, n): (oracle, predicted)} of one verify run through cli.main."""
    argv = ["verify", "--n", str(n), "--bound", str(bound), "--automorphism", twist]
    for (i, j), v in sorted(q.items()):
        argv += ["--q", f"{i},{j},{v}"]
    if twist == "explicit":
        argv += ["--p", ",".join(map(str, p))]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = Path(tmp) / "report.json"
        main([*argv, "--out", str(out)])
        report = json.loads(out.read_text())
    return {(tuple(cell["gamma"]), cell["n"]): (cell["natural_oracle"], cell["natural_predicted"])
            for cell in report["cells"]}


def tied_p(n, q, exponents):
    """p_i = prod_k q_ki^e_ik, with q_ki = 1/q_ik for k > i and q_ii = 1."""
    def q_at(k, i):
        return q[k, i] if k < i else 1 / q[i, k] if k > i else Fraction(1)

    p = []
    for i in range(1, n + 1):
        value = Fraction(1)
        for k in range(1, n + 1):
            value *= q_at(k, i) ** exponents[(i - 1) * n + k - 1]
        p.append(value)
    return p


configurations = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from(Q_VALUES), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.sampled_from(["canonical", "identity", "explicit"]),
    st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n),
    st.permutations(range(1, n + 1))))


def _unpack(case):
    n, q, twist, exponents, pi = case
    q = dict(zip(all_pairs(n), map(Fraction, q)))
    return n, q, twist, tied_p(n, q, exponents), tuple(pi)


@settings(max_examples=30, deadline=None)
@given(configurations, st.integers(2, 4))
# two cases whose dimensions change when a q value reaches the wrong pair
@example((3, [-1, 2, 3], "identity", [0] * 9, [1, 3, 2]), 4)
@example((3, [1, 1, -1], "canonical", [0] * 9, [1, 3, 2]), 2)
def test_relabelling_the_generators_keeps_every_cell(case, bound):
    n, q, twist, p, pi = _unpack(case)
    relabelled_q = {}
    for (i, j), v in q.items():
        a, b = pi[i - 1], pi[j - 1]
        relabelled_q[min(a, b), max(a, b)] = v if a < b else 1 / v
    relabelled_p = [p[pi.index(k)] for k in range(1, n + 1)]
    before = cells(n, q, twist, p, bound)
    after = cells(n, relabelled_q, twist, relabelled_p, bound)
    moved = {}
    for (gamma, degree), dims in before.items():
        image = [0] * n
        for i, g in enumerate(gamma):
            image[pi[i] - 1] = g
        moved[tuple(image), degree] = dims
    assert after == moved


@settings(max_examples=30, deadline=None)
@given(configurations, st.integers(2, 4))
def test_the_opposite_algebra_keeps_every_cell(case, bound):
    n, q, twist, p, _ = _unpack(case)
    opposite_q = {pair: 1 / v for pair, v in q.items()}
    assert (cells(n, opposite_q, twist, [1 / v for v in p], bound)
            == cells(n, q, twist, p, bound))
