"""The command-line front end: golden reports, exit codes, and input errors.

The golden reports under tests/golden/ are the CLI's own output for the
argument lists in GOLDEN; regenerate one with
``python -m qhyperplane.cli <args> --out tests/golden/<name>.json``.
"""

import json
from pathlib import Path

import pytest

from qhyperplane.cli import (EXIT_BAD_CONFIG, EXIT_MISMATCH, EXIT_OK,
                             EXIT_TRUNCATED, main)
from qhyperplane.qscalar import QCoefficient, QFraction, QPolynomial

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
])
def test_exit_codes(argv, code):
    assert main(argv) == code


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3", "--bound", "4", "--auto-primes"],
    ["homology", "--n", "3", "--q", "1,2,1/3", "--q", "1,3,1/3", "--q", "2,3,1/3",
     "--bound", "6", "--allow-truncated"],
])
def test_numeric_mode_builds_no_symbolic_scalar(argv, monkeypatch):
    # numeric mode computes with Fractions only
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"numeric mode built a {type(self).__name__}")

    for cls in (QCoefficient, QPolynomial, QFraction):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "1", "--bound", "5"],
    ["verify", "--n", "2", "--q", "1,2,-1", "--bound", "5"],
    ["verify", "--n", "2", "--automorphism", "solve-top", "--alpha", "1,0",
     "--bound", "4"],
])
def test_present_top_class_passes(argv, tmp_path):
    # the top class lies alongside other generators here; it is present
    out = tmp_path / "verify.json"
    assert _run(argv, out) == EXIT_OK
    document = json.loads(out.read_text())
    assert document["top_class"]["present"] is True
    assert document["failures"] == []


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
])
def test_malformed_config_file_exits_bad_config(content, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content))
    assert main(["homology", "--config", str(config)]) == EXIT_BAD_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_auto_primes_beyond_eight_generators():
    argv = ["homology", "--n", "9", "--auto-primes", "--bound", "2", "--allow-truncated"]
    assert main(argv) == EXIT_OK


def test_symbolic_verify_beyond_eight_generators():
    assert main(["verify", "--n", "9", "--bound", "1", "--nmax", "0"]) == EXIT_OK
