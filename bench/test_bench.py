"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench

Some tests run the real package from src/; the others run a small stand-in
package written to a temporary directory, so that what they check (a
raising invocation, a wrapped name that does not exist) does not depend on
the package's current defects or layout.
"""

from __future__ import annotations

import json
import textwrap

import pytest

import run
import tracing
import workloads
from workloads import Invocation

TINY_VERIFY = ("verify", "--n", "2", "--bound", "3", "--q", "1,2,3")
TINY_HOMOLOGY = ("homology", "--symbolic", "--n", "2", "--bound", "3",
                 "--allow-truncated")

STAND_IN_CLI = '''
    import argparse
    import json
    from pathlib import Path


    class RunConfig:
        def build_spec(self):
            return None

        def build_sigma(self, spec):
            return None


    def build_parser():
        parser = argparse.ArgumentParser()
        parser.add_argument("command")
        parser.add_argument("--out")
        return parser


    def build_config(args):
        return RunConfig()


    def main(argv):
        args = build_parser().parse_args(argv)
        if args.command == "boom":
            raise RuntimeError("boom")
        Path(args.out).write_text(json.dumps({"generic": True}))
        return 0
'''


@pytest.fixture
def stand_in(tmp_path):
    """A package named qhyperplane with a cli module and nothing else."""
    package = tmp_path / "src" / "qhyperplane"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(textwrap.dedent(STAND_IN_CLI))
    return tmp_path / "src"


@pytest.fixture
def workdir(tmp_path):
    path = tmp_path / "work"
    path.mkdir()
    return path


def real_digest(workdir, argv) -> str:
    result = run.run_pass(0, "plain", [Invocation("probe", argv, "x")], workdir)
    document = json.loads((workdir / "probe.json").read_text())
    assert result["invocations"][0]["rc"] == 0
    return workloads.digest(argv[0], document)


def test_recorded_expectations_pass(workdir):
    digest = real_digest(workdir, TINY_HOMOLOGY)
    expected = {"h": {"digest": digest}, "v": {"cells": 30}}
    r = run.Run([Invocation("h", TINY_HOMOLOGY, "h"),
                 Invocation("v", TINY_VERIFY, "v")], expected, workdir)
    r.gated_pass("plain")
    assert (r.attempted, r.failed, r.failures) == (2, 0, [])


def test_tampered_digest_counts_as_failure(workdir):
    digest = real_digest(workdir, TINY_HOMOLOGY)
    tampered = ("0" if digest[0] != "0" else "1") + digest[1:]
    r = run.Run([Invocation("h", TINY_HOMOLOGY, "h")],
                {"h": {"digest": tampered}}, workdir)
    r.gated_pass("plain")
    assert (r.attempted, r.failed) == (1, 1)
    assert "digest" in r.failures[0]


def test_wrong_cell_count_counts_as_failure(workdir):
    r = run.Run([Invocation("v", TINY_VERIFY, "v")], {"v": {"cells": 31}}, workdir)
    r.gated_pass("plain")
    assert r.failed == 1
    assert "30 cells, expected 31" in r.failures[0]


def test_raising_invocation_fails_without_aborting_the_pass(stand_in, workdir):
    verdict = {"g": {"digest": workloads.digest("generic-check", {"generic": True})}}
    invocations = [Invocation("first", ("generic-check",), "g"),
                   Invocation("boom", ("boom",), "g"),
                   Invocation("after", ("generic-check",), "g")]
    r = run.Run(invocations, verdict, workdir, src=stand_in)
    result = r.gated_pass("plain")
    assert (r.attempted, r.failed) == (3, 1)
    assert r.failures[0].startswith("boom") and "RuntimeError" in r.failures[0]
    assert [i["rc"] for i in result["invocations"]] == [0, None, 0]


def test_missing_wrapped_names_are_reported_missing(stand_in, workdir, tmp_path):
    verdict = {"g": {"digest": workloads.digest("generic-check", {"generic": True})}}
    r = run.Run([Invocation("g", ("generic-check",), "g")], verdict, workdir,
                src=stand_in)
    metrics = run.per_layer(r, 0, tmp_path / "spans.json")
    assert r.failed == 0
    # the stand-in has the config entry points but no other module
    assert metrics["cli.config_s"] is not None
    for name in ("cli.output_s", "hochschild.assembly_s", "exactlinalg.rank_s",
                 "exactlinalg.rank_calls", "hyperplane.monomial_product_calls"):
        assert metrics[name] is None, name
    assert "qhyperplane.hochschild:HochschildComplex.boundary_matrix" in r.missing


def test_patches_report_missing_names_and_undo(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import qhyperplane.hyperplane as hyperplane
    original = hyperplane.monomial_product
    patches = tracing.Patches()
    patches.wrap("qhyperplane.hyperplane:no_such_function", lambda fn: fn)
    patches.wrap("qhyperplane.no_such_module:anything", lambda fn: fn)
    patches.wrap("qhyperplane.hyperplane:monomial_product",
                 lambda fn: lambda *a, **k: fn(*a, **k))
    try:
        assert patches.missing == ["qhyperplane.hyperplane:no_such_function",
                                   "qhyperplane.no_such_module:anything"]
        assert hyperplane.monomial_product is not original
    finally:
        patches.undo()
    assert hyperplane.monomial_product is original


def test_self_times_and_unattributed_sum_to_traced_wall(workdir):
    invocations = [Invocation("v", TINY_VERIFY, "v"), Invocation("h", TINY_HOMOLOGY, "h")]
    result = run.run_pass(0, "spans", invocations, workdir)
    spans = [tracing.Span(*s) for s in result["spans"]]
    selves = tracing.self_times(spans)
    wall = run.invocation_wall(result)
    assert {"hochschild.assembly", "exactlinalg.rank", "koszul.homotopy",
            "homology.enumerate", tracing.ROOT} <= set(selves)
    assert sum(selves.values()) == pytest.approx(wall, rel=1e-3)
    assert all(s.pass_id == 0 for s in spans)
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == [tracing.ROOT, tracing.ROOT]


def test_counting_pass_counts_the_hot_functions(workdir):
    result = run.run_pass(0, "counts", [Invocation("v", TINY_VERIFY, "v")], workdir)
    counts = result["counts"]
    assert result["missing"] == [] and result["broken"] == {}
    assert counts["hyperplane.monomial_product_calls"] > counts[
        "hyperplane.monomial_product_distinct"] > 0
    assert counts["hochschild.cells_checked"] == 30
    assert counts["hochschild.cells_skipped"] == 0
    assert counts["exactlinalg.rank_calls"] == counts["hochschild.matrices"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path)
    again = workloads.build(workload, 7, tmp_path)
    assert first == again
    names = [inv.name for inv in first]
    assert len(names) == len(set(names))
    expected = workloads.load_expected()
    assert all(inv.expect in expected for inv in first)
