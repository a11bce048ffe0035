"""The command-line front end: golden reports, exit codes, and input errors.

The golden reports under tests/golden/ are the CLI's own output for the
argument lists in GOLDEN; regenerate one with
``python -m qhyperplane.cli <args> --out tests/golden/<name>.json``.
"""

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from qhyperplane.cli import (EXIT_BAD_CONFIG, EXIT_MISMATCH, EXIT_OK,
                             EXIT_TRUNCATED, main)
from qhyperplane import homology, qscalar
from qhyperplane.hyperplane import iter_multidegrees
from qhyperplane.koszul import ReducedComplex
from qhyperplane.qscalar import QPolynomial

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "homology": ["homology", "--n", "2", "--bound", "4"],
    "csigma": ["csigma", "--n", "2", "--bound", "5", "--automorphism", "identity",
               "--allow-truncated"],
    "canonical": ["canonical", "--n", "3"],
    "generic-check": ["generic-check", "--n", "3", "--q", "1,2,2", "--q", "1,3,3",
                      "--q", "2,3,1", "--bound", "6"],
    "verify": ["verify", "--n", "2", "--bound", "3"],
    # q = -1 is not generic: more multidegrees carry homology
    "verify-nongeneric": ["verify", "--n", "2", "--q", "1,2,-1", "--bound", "5"],
    # a 61-bit q12 gives wrap-around weights and rank entries of hundreds of bits
    "verify-q61": ["verify", "--n", "2", "--bound", "6", "--q", "1,2,2305843009213693951"],
    # the Koszul self-checks on 681 elements each, with Laurent-polynomial weights
    "verify-koszul-symbolic": ["verify", "--n", "4", "--bound", "5", "--nmax", "0",
                               "--symbolic"],
    # exponents other than +-1 in sigma pin the symbolic coefficient strings
    "homology-solve-top": ["homology", "--symbolic", "--n", "3", "--automorphism",
                           "solve-top", "--alpha", "1,0,2", "--bound", "6"],
}


def _run(argv, out_path):
    return main([*argv, "--out", str(out_path)])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_is_byte_identical(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.json").read_bytes()
    for attempt in ("first", "second"):
        out = tmp_path / f"{attempt}.json"
        assert _run(GOLDEN[name], out) == EXIT_OK
        assert out.read_bytes() == expected


@pytest.mark.parametrize("argv, code", [
    (["homology", "--n", "2"], EXIT_OK),
    (["verify", "--n", "2", "--bound", "5", "--cap", "5"], EXIT_MISMATCH),
    (["homology", "--n", "3", "--q", "x,2,3"], EXIT_BAD_CONFIG),
    # the identity twist admits every power of each generator: infinite rays
    (["homology", "--n", "3", "--auto-primes", "--bound", "6", "--automorphism",
      "identity"], EXIT_TRUNCATED),
    # the identity twist promises no top class unless --expect-top asks for it
    (["verify", "--symbolic", "--n", "2", "--bound", "3", "--automorphism", "identity",
      "--expect-top"], EXIT_MISMATCH),
    (["verify", "--symbolic", "--n", "2", "--bound", "3", "--automorphism", "identity"],
     EXIT_OK),
    # distinct primes: the admissible set is proven complete
    (["homology", "--n", "3", "--auto-primes", "--bound", "6"], EXIT_OK),
    # a cap below 1 is malformed input, not a run with every cell skipped
    (["verify", "--n", "2", "--bound", "3", "--cap", "-1"], EXIT_BAD_CONFIG),
    # --p and --alpha belong to one twist each and are never ignored
    (["homology", "--n", "2", "--symbolic", "--p", "2,3"], EXIT_BAD_CONFIG),
    (["homology", "--n", "2", "--automorphism", "identity", "--alpha", "1,0"],
     EXIT_BAD_CONFIG),
    (["homology", "--n", "2", "--automorphism", "solve-top", "--alpha", "1,0",
      "--p", "2,3"], EXIT_BAD_CONFIG),
    # --auto-primes never silently replaces explicit q values
    (["homology", "--n", "2", "--q", "1,2,-1", "--auto-primes", "--bound", "4"],
     EXIT_BAD_CONFIG),
    # canonical and generic-check use no twist, so they take none
    (["canonical", "--n", "2", "--automorphism", "identity"], EXIT_BAD_CONFIG),
    (["generic-check", "--n", "2", "--automorphism", "canonical"], EXIT_BAD_CONFIG),
])
def test_exit_codes(argv, code):
    assert main(argv) == code


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3", "--bound", "4", "--auto-primes"],
    ["homology", "--n", "3", "--q", "1,2,1/3", "--q", "1,3,1/3", "--q", "2,3,1/3",
     "--bound", "6", "--allow-truncated"],
])
def test_numeric_mode_builds_no_symbolic_scalar(argv, monkeypatch):
    # numeric mode computes with Fractions only: no symbolic scalar and no
    # symbol q_ij is built, whichever module calls the constructor
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"numeric mode built a {type(self).__name__}")

    def refuse_symbol(*args):
        raise AssertionError(f"numeric mode built the symbol q{args}")

    monkeypatch.setattr(QPolynomial, "__init__", refuse)
    callers = [m for name, m in sys.modules.items()
               if name.startswith("qhyperplane")
               and getattr(m, "symbol", None) is qscalar.symbol]
    assert len(callers) >= 2      # qscalar itself and hyperplane at least
    for module in callers:
        monkeypatch.setattr(module, "symbol", refuse_symbol)
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("argv, key, value", [
    (["homology", "--symbolic", "--n", "1", "--bound", "3", "--allow-truncated"],
     "mode", "symbolic"),
    (["generic-check", "--n", "1"], "structural", True),
])
def test_single_generator_stays_symbolic(argv, key, value, tmp_path):
    # N = 1 has no pair q_ij, so the mode cannot be read off the q table
    out = tmp_path / "report.json"
    assert _run(argv, out) == EXIT_OK
    document = json.loads(out.read_text())
    assert document["config"]["mode"] == "symbolic"
    assert document[key] == value


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "1", "--bound", "5"],
    ["verify", "--n", "2", "--q", "1,2,-1", "--bound", "5"],
    ["verify", "--n", "2", "--automorphism", "solve-top", "--alpha", "1,0",
     "--bound", "4"],
])
def test_present_top_class_passes(argv, tmp_path, capsys):
    # the top class lies alongside other generators here; it is present
    out = tmp_path / "verify.json"
    assert _run(argv, out) == EXIT_OK
    document = json.loads(out.read_text())
    assert document["top_class"]["present"] is True
    assert document["failures"] == []
    # the homotopy is scaled by D(gamma), and the summary says so
    assert "  dh + hd = D*id: True (" in capsys.readouterr().out


def test_skipped_cells_fail_verification(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert _run(["verify", "--n", "2", "--bound", "5", "--cap", "5"], out) == EXIT_MISMATCH
    document = json.loads(out.read_text())
    assert document["agreement"] is False
    assert document["failures"] == ["33 of 63 cells skipped: chain basis over --cap 5"]
    stdout = capsys.readouterr().out
    assert "30/63 cells checked" in stdout
    assert "MISMATCH" not in stdout


def test_non_integer_alpha_exits_bad_config(capsys):
    argv = ["homology", "--n", "2", "--automorphism", "solve-top", "--alpha", "a,b"]
    assert main(argv) == EXIT_BAD_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    {"n": 2, "q": [[1, 2]]},            # a q entry without three fields
    {"n": 2.5},
    [2],
    {"n": 2, "nmax": 1},                # not a config key; n_max is
    {"n": 1, "mode": "generic"},        # at N=1 this used to run numeric
    {"n": 2, "mode": "symbolic", "q": [[1, 2, "3"]]},
])
def test_malformed_config_file_exits_bad_config(content, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content))
    assert main(["homology", "--config", str(config)]) == EXIT_BAD_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_config_file_not_utf8_exits_bad_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe" + json.dumps({"n": 2}).encode("utf-16-le"))
    assert main(["homology", "--config", str(config)]) == EXIT_BAD_CONFIG
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--bound", "2"],
    ["homology", "--n", "2"],
])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_exits_bad_config(argv, target, tmp_path, capsys):
    # the report is lost, so the run must not read as ok or as a failed check
    out = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
    assert main([*argv, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert f"cannot write --out {out}" in capsys.readouterr().err


def test_config_mode_symbolic_excludes_auto_primes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 2, "mode": "symbolic"}))
    argv = ["homology", "--config", str(config), "--auto-primes"]
    assert main(argv) == EXIT_BAD_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, content, flags", [
    # config-file q values are never silently replaced by the primes
    ("homology", {"n": 2, "q": [[1, 2, "-1"]]}, ["--auto-primes"]),
    # canonical and generic-check use no twist, so they take none
    ("canonical", {"n": 2, "automorphism": "identity"}, []),
    ("generic-check", {"n": 2, "automorphism": "identity"}, []),
])
def test_config_file_conflicts_exit_bad_config(command, content, flags, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content))
    assert main([command, "--config", str(config), *flags]) == EXIT_BAD_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_verify_checks_the_admissible_solver(monkeypatch, capsys):
    # the prediction is the homology report, so a member the solver loses
    # must show up as an oracle mismatch
    real = homology.enumerate_admissible

    def drop_last(*args):
        out = real(*args)
        return replace(out, members=out.members[:-1])

    monkeypatch.setattr(homology, "enumerate_admissible", drop_last)
    assert main(["verify", "--n", "3", "--bound", "4", "--auto-primes"]) == EXIT_MISMATCH
    assert "MISMATCH {'gamma': [1, 1, 1]" in capsys.readouterr().out


def test_verify_builds_each_block_once(monkeypatch, capsys):
    # d^2 = 0 and dh + hd = D*id read one complex, so every multidegree block
    # up to the bound is built exactly once per run
    built = Counter()
    build = ReducedComplex._build_block

    def counting(self, gamma):
        built[gamma] += 1
        return build(self, gamma)

    monkeypatch.setattr(ReducedComplex, "_build_block", counting)
    assert main(["verify", "--n", "3", "--bound", "4", "--nmax", "0",
                 "--auto-primes"]) == EXIT_OK
    assert "d^2 = 0: True (129 elements)" in capsys.readouterr().out
    assert built == Counter(iter_multidegrees(3, 4))


def test_auto_primes_beyond_eight_generators():
    argv = ["homology", "--n", "9", "--auto-primes", "--bound", "2", "--allow-truncated"]
    assert main(argv) == EXIT_OK


def test_symbolic_verify_beyond_eight_generators():
    assert main(["verify", "--n", "9", "--bound", "1", "--nmax", "0"]) == EXIT_OK
