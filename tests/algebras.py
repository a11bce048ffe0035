"""Algebras, the eigenvalues of a twist, and the CLI's genericity report on an
algebra, that the tests share."""

import json
from fractions import Fraction
from pathlib import Path

from qhyperplane.cli import EXIT_OK, main
from qhyperplane.hyperplane import (NUMERIC, AlgebraSpec, MultiIndex,
                                    ScalingAutomorphism)
from qhyperplane.qscalar import Scalar, all_pairs, scalar_prod


def one_parameter(n: int, q) -> AlgebraSpec:
    """The one-parameter hyperplane x_i x_j = q x_j x_i for i > j.

    In the stored convention this means q_ij = 1/q for every i < j.
    """
    return AlgebraSpec.numeric(n, dict.fromkeys(all_pairs(n), 1 / Fraction(q)))


def apply_sigma(sigma: ScalingAutomorphism, alpha: MultiIndex) -> Scalar:
    """Eigenvalue of x^alpha under sigma: prod_i p_i^{alpha(i)}, a product
    of one kind of scalar, as the p_i of a twist are."""
    return scalar_prod(c ** a for c, a in zip(sigma.p, alpha) if a)


def generic_check(spec: AlgebraSpec, bound: int, workdir: Path) -> dict:
    """The generic-check report that cli.main writes for spec and bound, with
    the algebra given as a config file in workdir."""
    config, out = workdir / "generic-config.json", workdir / "generic-report.json"
    q = [[i, j, str(v)] for (i, j), v in spec.q.items()] if spec.mode == NUMERIC else []
    config.write_text(json.dumps({"n": spec.n, "mode": spec.mode, "q": q, "bound": bound}))
    assert main(["generic-check", "--config", str(config), "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text())
