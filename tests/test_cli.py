"""The command-line front end: golden reports, exit codes, and input errors.

The golden reports under tests/golden/ are the CLI's own output for the
argument lists in GOLDEN; regenerate one with
``python -m qhyperplane.cli <args> --out tests/golden/<name>.json``.
tests/help_text.json holds what the parser prints at COLUMNS=80, keyed by
the argument list.
"""

import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qhyperplane.cli import (EXIT_BAD_CONFIG, EXIT_BROKEN_PIPE, EXIT_MISMATCH,
                             EXIT_OK, EXIT_TRUNCATED, _generator_labels,
                             _write_json, build_config, build_parser, main)
import qhyperplane
from qhyperplane import homology, qscalar
from qhyperplane.exactlinalg import SparseExactMatrix
from qhyperplane.hochschild import compare_with_koszul
from qhyperplane.hyperplane import AlgebraSpec, canonical_automorphism, iter_multidegrees
from qhyperplane.koszul import ReducedComplex, check_d_squared
from qhyperplane.qscalar import QMonomial

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = Path(qhyperplane.__file__).parent.parent
FORMAT_DOC = SRC.parent / "docs" / "format.md"

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
    # the rational p_1 = 1 meets the symbolic commutation factors, and gamma =
    # (k, 0) carries homology; the oracle's primes avoid those of 2/3
    "verify-explicit-symbolic": ["verify", "--symbolic", "--n", "2", "--automorphism",
                                 "explicit", "--p", "1,2/3", "--bound", "4"],
    # exponents other than +-1 in sigma pin the symbolic monomial strings
    "homology-solve-top": ["homology", "--symbolic", "--n", "3", "--automorphism",
                           "solve-top", "--alpha", "1,0,2", "--bound", "6"],
    # every q_ij = 2: a one-parameter hyperplane, about 40 KB of generators
    "homology-one-parameter": ["homology", "--n", "5",
                               *(flag for i in range(1, 6) for j in range(i + 1, 6)
                                 for flag in ("--q", f"{i},{j},2")),
                               "--bound", "10", "--allow-truncated"],
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


def format_tables() -> dict[str, list[list[tuple[set[str], str]]]]:
    """The field tables of docs/format.md: section title -> its tables, each a
    list of rows (the backticked names in the first column, the meaning)."""
    sections, table = {}, None
    for line in FORMAT_DOC.read_text().splitlines():
        if line.startswith("## "):
            tables = sections.setdefault(line[3:].strip("`"), [])
        if not line.startswith("|"):
            table = None
            continue
        field, meaning = (cell.strip() for cell in line.strip("|").split("|", 1))
        if names := set(re.findall(r"`([^`]+)`", field)):
            if table is None:
                table = []
                tables.append(table)
            table.append((names, meaning))
    return sections


def _names(table) -> set[str]:
    return set().union(*(names for names, _ in table))


def _documented_keys(obj: dict, names: set[str]) -> set[str]:
    """obj's keys as a table names them: a key it does not name stands for
    its own keys, as key.child."""
    keys = set()
    for key, value in obj.items():
        if key in names or not isinstance(value, dict):
            keys.add(key)
        else:
            keys.update(f"{key}.{child}" for child in value)
    return keys


@pytest.mark.parametrize("command", ["homology", "csigma", "canonical",
                                     "generic-check", "verify"])
def test_format_doc_names_every_report_field(command, tmp_path):
    sections = format_tables()
    common, config_table = sections["Fields every report has"]
    tables = sections[command]
    assert len(tables) == (2 if command == "verify" else 1)
    out = tmp_path / "report.json"
    assert _run(GOLDEN[command], out) == EXIT_OK
    document = json.loads(out.read_text())

    top = _names(common) | _names(tables[0])
    assert _documented_keys(document, top) == top
    assert _documented_keys(document["config"], _names(config_table)) == _names(config_table)
    if command == "verify":
        assert set(document["cells"][0]) == _names(tables[1])
    # a field documented as {a, b, ...} is an object with exactly those keys
    for names, meaning in tables[0]:
        if braces := re.match(r"`\{([^}]*)\}`", meaning):
            for name in names:
                obj = document
                for part in name.split("."):
                    obj = obj[part]
                assert set(obj) == set(braces[1].split(", "))


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-2**200, max_value=2**200)
    | st.text(st.characters(max_codepoint=0x1F600) | st.sampled_from('"\\\n\x00\x7f')),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_writer_matches_json_dumps(document):
    chunks = []
    _write_json(chunks.append, document)
    assert "".join(chunks) == json.dumps(document, indent=2, sort_keys=True)


@pytest.mark.parametrize("document", [
    {"x": 1.5}, [0, 1.0], {"gamma": (1, 2)}, (1, 2), {1: "a"}, {"a": [{2: 0}]},
])
def test_writer_rejects_floats_tuples_and_non_str_keys(document):
    with pytest.raises(TypeError):
        _write_json(lambda text: None, document)


def reference_generator_label(alpha, beta) -> str:
    symmetric = " ".join(f"x{i+1}" + (f"^{a}" if a > 1 else "")
                         for i, a in enumerate(alpha) if a)
    exterior = " ".join(f"dx{i+1}" for i, b in enumerate(beta) if b)
    return " ".join(part for part in (symmetric, exterior) if part) or "1"


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 30), min_size=n, max_size=n),
    st.lists(st.integers(0, 1), min_size=n, max_size=n))))
def test_generator_labels_match_the_reference(alpha_beta):
    alpha, beta = alpha_beta
    label = _generator_labels(len(alpha))
    assert label(tuple(alpha), tuple(beta)) == reference_generator_label(alpha, beta)


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    GOLDEN["homology-one-parameter"],
    GOLDEN["verify"],
    ["csigma", "--n", "2", "--bound", "4", "--automorphism", "identity"],
])
def test_closed_stdout_exits_broken_pipe_with_the_report_written(
        argv, tmp_path, monkeypatch):
    # the report is written before stdout, so a reader that stops early
    # (| head -1) loses nothing of it, and the run never reads as failed
    assert _run(argv, tmp_path / "normal.json") in (EXIT_OK, EXIT_TRUNCATED)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert _run(argv, tmp_path / "piped.json") == EXIT_BROKEN_PIPE
    assert (tmp_path / "piped.json").read_bytes() == (tmp_path / "normal.json").read_bytes()


@pytest.mark.parametrize("name", ["canonical", "homology-one-parameter"])
def test_closed_stdout_pipe_exits_quietly(name, tmp_path):
    # with stdout buffered, as it is by default, the short table is still in
    # the buffer when main returns, so its broken pipe shows only at the
    # final flush; neither case may print a traceback
    out = tmp_path / "r.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    # the child finds the package where this process does, with or without
    # PYTHONPATH set
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, "-m", "qhyperplane.cli", *GOLDEN[name],
                              "--out", str(out)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    _, stderr = child.communicate(timeout=60)
    assert child.returncode == EXIT_BROKEN_PIPE
    assert stderr == b""
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()


CONFIG_FILES = {
    # nested deeper than the decoder's recursion limit
    "deep.json": "[" * 200000 + "]" * 200000,
    # an int of more digits than int() converts from a string
    "long-int.json": '{"n": 0, "bound": ' + "1" * 5000 + "}",
    # int() would read this as 10
    "underscore.json": '{"n": "1_0"}',
}


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
    # config files that json cannot decode into Python objects
    (["homology", "--config", "deep.json"], EXIT_BAD_CONFIG),
    (["homology", "--config", "long-int.json"], EXIT_BAD_CONFIG),
    # a --p value may start with a minus sign, as --p=-2,3 always could
    (["homology", "--n", "2", "--automorphism", "explicit", "--p", "-2,3",
      "--bound", "4"], EXIT_OK),
    (["homology", "--n", "2", "--automorphism", "explicit", "--p", "-2/3"],
     EXIT_BAD_CONFIG),
    # integer flags are parsed as the same keys in a config file are
    (["homology", "--n", "x"], EXIT_BAD_CONFIG),
    (["homology", "--n", "2", "--bound", "2.5"], EXIT_BAD_CONFIG),
    (["homology", "--n", "2", "--nmax", "two"], EXIT_BAD_CONFIG),
    (["verify", "--n", "2", "--bound", "3", "--cap", "1e3"], EXIT_BAD_CONFIG),
    # an --alpha value may start with a minus sign too; solve-top refuses it
    (["homology", "--n", "2", "--automorphism", "solve-top", "--alpha", "-1,0"],
     EXIT_BAD_CONFIG),
    # symbolic mode takes no q values, given or chosen
    (["homology", "--n", "2", "--symbolic", "--q", "1,2,3"], EXIT_BAD_CONFIG),
    (["homology", "--n", "2", "--symbolic", "--auto-primes"], EXIT_BAD_CONFIG),
    # alpha_i + 1 is a q exponent in p, and symbolic exponents stay below 2^32
    (["homology", "--n", "2", "--automorphism", "solve-top", "--alpha", "4294967295,0"],
     EXIT_BAD_CONFIG),
    (["homology", "--n", "2", "--automorphism", "solve-top", "--alpha", "4294967294,0",
      "--allow-truncated"], EXIT_OK),
    # integers and rationals are an optional sign and ASCII digits, which
    # int() and Fraction() alone are not: they read 1_0 as 10, the
    # Arabic-Indic 12 as 12, and skip the spaces of " 2 "
    (["homology", "--n", "1_0"], EXIT_BAD_CONFIG),
    (["homology", "--n", "2", "--bound", "\u0661\u0662"], EXIT_BAD_CONFIG),
    (["homology", "--n", " 2 "], EXIT_BAD_CONFIG),
    (["homology", "--n", "2", "--q", "1,2,1_0"], EXIT_BAD_CONFIG),
    (["homology", "--n", "2", "--automorphism", "solve-top", "--alpha", "1_0,0"],
     EXIT_BAD_CONFIG),
    (["homology", "--config", "underscore.json"], EXIT_BAD_CONFIG),
    # a p_i of more digits than str() writes cannot be reported; verify
    # writes no p, so it runs where homology and canonical refuse
    (["canonical", "--n", "3", "--q", "1,2," + "7" * 4000, "--q", "1,3," + "3" * 4000,
      "--q", "2,3,1"], EXIT_BAD_CONFIG),
    (["homology", "--n", "2", "--q", "1,2,2", "--automorphism", "solve-top",
      "--alpha", "20000,0", "--bound", "2", "--allow-truncated"], EXIT_BAD_CONFIG),
    (["verify", "--n", "2", "--q", "1,2,2", "--automorphism", "solve-top",
      "--alpha", "20000,0"], EXIT_OK),
])
def test_exit_codes(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if "--config" in argv:
        name = argv[argv.index("--config") + 1]
        (tmp_path / name).write_text(CONFIG_FILES[name])
    assert main(argv) == code
    if code == EXIT_BAD_CONFIG:
        assert "configuration error: " in capsys.readouterr().err


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

    monkeypatch.setattr(QMonomial, "__init__", refuse)
    callers = [m for name, m in sys.modules.items()
               if name.startswith("qhyperplane")
               and getattr(m, "symbol", None) is qscalar.symbol]
    assert len(callers) >= 2      # qscalar itself and hyperplane at least
    for module in callers:
        monkeypatch.setattr(module, "symbol", refuse_symbol)
    assert main(argv) == EXIT_OK


def _built_monomials(monkeypatch) -> list:
    """The packed exponents of every QMonomial built from now on, by a spy on
    its constructor."""
    built = []
    init = QMonomial.__init__

    def spy(self, m):
        built.append(m)
        init(self, m)

    monkeypatch.setattr(QMonomial, "__init__", spy)
    return built


def test_symbolic_checks_compute_in_ints(monkeypatch):
    # a symbolic scalar is a bare monomial, its packed exponents one int,
    # with no slot for a coefficient; a rational factor would raise TypeError
    built = _built_monomials(monkeypatch)
    assert main(["verify", "--n", "4", "--bound", "5", "--nmax", "0", "--symbolic"]) == EXIT_OK
    assert QMonomial.__slots__ == ("m",)
    assert built and all(type(m) is int for m in built)


def test_a_proper_fraction_in_sigma_stays_out_of_the_symbolic_terms(monkeypatch):
    # p_1 = 2/3 meets the q_ij only where sigma-commutation is decided, by
    # comparison: the moves and the homotopy never multiply by a p_i, which
    # would raise TypeError, so the run ends and its monomials stay bare
    built = _built_monomials(monkeypatch)
    assert main(["verify", "--symbolic", "--n", "2", "--automorphism", "explicit",
                 "--p", "2/3,5"]) == EXIT_OK
    assert QMonomial.__slots__ == ("m",)
    assert built and all(type(m) is int for m in built)


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "2", "--bound", "3"],
    ["verify", "--symbolic", "--n", "2", "--bound", "3"],
    ["verify", "--n", "2", "--automorphism", "explicit", "--p", "2/3,5", "--bound", "3"],
])
def test_no_fraction_reaches_rank(argv, monkeypatch, capsys):
    # the oracle scales each row of a coboundary to ints, numeric and
    # symbolic input alike, and with a twist of proper fractions
    seen = []
    rank = SparseExactMatrix.rank

    def spy(self):
        seen.extend(type(v) for v in self.entries.values())
        return rank(self)

    monkeypatch.setattr(SparseExactMatrix, "rank", spy)
    assert main(argv) == EXIT_OK
    assert seen and set(seen) == {int}


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


def _run_with_config(tmp_path, capsys, command, content, flags, name="run"):
    """(exit code, --out bytes, stdout) of command with content as its
    --config file and flags after it."""
    config, out = tmp_path / f"{name}-config.json", tmp_path / f"{name}.json"
    config.write_text(json.dumps(content))
    code = main([command, "--config", str(config), *flags, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None, capsys.readouterr().out


@pytest.mark.parametrize("command, content, flags, shared", [
    ("homology", {"n": 2, "q": [[1, 2, "3"]], "mode": "numeric", "bound": 4},
     ["--n", "2", "--q", "1,2,3", "--bound", "4"], ["--allow-truncated"]),
    ("verify", {"n": 2, "mode": "symbolic", "bound": 3, "n_max": 1},
     ["--symbolic", "--n", "2", "--bound", "3", "--nmax", "1"], []),
    ("csigma", {"n": 2, "automorphism": "identity", "bound": 4},
     ["--n", "2", "--automorphism", "identity", "--bound", "4"], ["--allow-truncated"]),
])
def test_config_file_run_matches_the_same_flags(command, content, flags, shared,
                                                tmp_path, capsys):
    code, report, stdout = _run_with_config(tmp_path, capsys, command, content, shared)
    assert code == EXIT_OK and report
    out = tmp_path / "flags.json"
    assert main([command, *flags, *shared, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == report
    assert capsys.readouterr().out == stdout


def test_flags_replace_the_config_file_keys(tmp_path, capsys):
    content = {"n": 3, "bound": 6, "n_max": 3, "automorphism": "identity"}
    flags = ["--n", "2", "--bound", "4", "--nmax", "1", "--automorphism", "canonical"]
    code, report, _ = _run_with_config(tmp_path, capsys, "homology", content, flags)
    assert code == EXIT_OK
    config = json.loads(report)["config"]
    assert (config["n"], config["bound"], config["n_max"]) == (2, 4, 1)
    assert config["automorphism"]["kind"] == "canonical"


def test_symbolic_flag_replaces_a_numeric_config_mode(tmp_path, capsys):
    # without --symbolic this file asks for a numeric run with no q values
    code, report, _ = _run_with_config(tmp_path, capsys, "homology",
                                       {"n": 2, "mode": "numeric"}, ["--symbolic"])
    assert code == EXIT_OK
    assert json.loads(report)["config"]["mode"] == "symbolic"


def test_config_file_q_and_q_flags_combine(tmp_path, capsys):
    content = {"n": 3, "q": [[1, 2, "2"], [1, 3, "3"]]}
    code, report, _ = _run_with_config(tmp_path, capsys, "homology", content,
                                       ["--q", "2,3,5", "--allow-truncated"])
    assert code == EXIT_OK
    config = json.loads(report)["config"]
    assert config["mode"] == "numeric"
    assert config["q"] == [[1, 2, "2"], [1, 3, "3"], [2, 3, "5"]]


@pytest.mark.parametrize("content, flags", [
    ({"n": "x"}, ["--n", "2"]),
    ({"n": 2, "bound": "x"}, ["--bound", "3"]),
    ({"n": 2, "n_max": "x"}, ["--nmax", "1"]),
    ({"n": 2, "automorphism": "x"}, ["--automorphism", "identity", "--allow-truncated"]),
])
def test_a_config_value_that_a_flag_replaces_is_never_read(content, flags, tmp_path,
                                                           capsys):
    assert _run_with_config(tmp_path, capsys, "homology", content, flags)[0] == EXIT_OK


@pytest.mark.parametrize("content, flags, needle", [
    # the file's mode is checked before --symbolic replaces it
    ({"n": 2, "mode": "generic"}, ["--symbolic"], "'generic'"),
    # and its q before the --q values are appended to it
    ({"n": 2, "q": "x"}, ["--q", "1,2,3"], "q in the config file"),
    ({"n": 2, "mode": "symbolic"}, ["--q", "1,2,3"], "excludes q values"),
    # file q and --q combine, so a pair given in both is given twice
    ({"n": 2, "q": [[1, 2, "3"]]}, ["--q", "1,2,3"], "duplicate q pair"),
])
def test_config_file_refusals_name_the_bad_input(content, flags, needle, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content))
    assert main(["homology", "--config", str(config), *flags]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and needle in err


def test_verify_checks_the_admissible_solver(monkeypatch, capsys):
    # the prediction is the homology report, so a member the solver loses
    # must show up as an oracle mismatch
    real = homology.enumerate_admissible

    def drop_last(*args):
        out = real(*args)
        return out._replace(members=out.members[:-1])

    monkeypatch.setattr(homology, "enumerate_admissible", drop_last)
    assert main(["verify", "--n", "3", "--bound", "4", "--auto-primes"]) == EXIT_MISMATCH
    assert "MISMATCH {'gamma': [1, 1, 1]" in capsys.readouterr().out


def test_verify_builds_each_block_once(monkeypatch, capsys):
    # d^2 = 0 and dh + hd = D*id are checked on each block as it is built, so
    # every multidegree block up to the bound is built exactly once per run
    built = Counter()
    build = ReducedComplex.block

    def counting(self, gamma):
        built[gamma] += 1
        return build(self, gamma)

    monkeypatch.setattr(ReducedComplex, "block", counting)
    assert main(["verify", "--n", "3", "--bound", "4", "--nmax", "0",
                 "--auto-primes"]) == EXIT_OK
    assert "d^2 = 0: True (129 elements)" in capsys.readouterr().out
    assert built == Counter(iter_multidegrees(3, 4))


def test_auto_primes_beyond_eight_generators():
    argv = ["homology", "--n", "9", "--auto-primes", "--bound", "2", "--allow-truncated"]
    assert main(argv) == EXIT_OK


def test_twenty_generators_admit_only_the_zero_multidegree(tmp_path):
    # distinct primes under the canonical twist: the one other admissible
    # multidegree, (1, ..., 1), lies past the bound
    out = tmp_path / "homology.json"
    argv = ["homology", "--n", "20", "--auto-primes", "--bound", "2", "--allow-truncated"]
    assert _run(argv, out) == EXIT_OK
    assert json.loads(out.read_text())["admissible"]["members"] == [[0] * 20]


def test_verify_at_twelve_generators_agrees(tmp_path):
    out = tmp_path / "verify.json"
    assert _run(["verify", "--n", "12", "--bound", "1", "--nmax", "0", "--auto-primes"],
                out) == EXIT_OK
    assert json.loads(out.read_text())["agreement"] is True


def test_symbolic_verify_beyond_eight_generators():
    assert main(["verify", "--n", "9", "--bound", "1", "--nmax", "0"]) == EXIT_OK


def test_importing_the_cli_loads_no_dataclasses_typing_or_pathlib():
    # each CLI process pays for every module the package imports; on a bare
    # interpreter, with no site hooks (-I -S), it needs none of these
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qhyperplane.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'pathlib'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


RECORD_FIELDS = {
    "RunConfig": ("n", "mode", "q_values", "automorphism", "p_list", "alpha", "bound",
                  "n_max", "out", "allow_truncated", "expect_top", "cap"),
    "AlgebraSpec": ("n", "mode", "q"),
    "ScalingAutomorphism": ("p",),
    "AdmissibleSet": ("members", "complete"),
    "DegreeSlice": ("n", "generators", "grading"),
    "HomologyReport": ("admissible", "slices"),
    "ComparisonCell": ("gamma", "n", "natural_oracle", "natural_predicted"),
    "ComparisonReport": ("cells",),
    "CheckReport": ("checked", "failures"),
    "Block": ("gamma", "d", "h", "scale"),
}


@pytest.fixture(scope="module")
def records():
    """One instance of each record type, by type name."""
    spec = AlgebraSpec.symbolic(2)
    sigma = canonical_automorphism(spec)
    report = homology.build_report(spec, sigma, 3)
    comparison = compare_with_koszul(spec, sigma, 1, 2)
    block = ReducedComplex(spec, sigma).block((1, 1))
    found = [build_config(build_parser().parse_args(["verify", "--n", "2"])), spec, sigma,
             report.admissible, report.slices[0], report, comparison.cells[0], comparison,
             check_d_squared(block), block]
    return {type(record).__name__: record for record in found}


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_records_are_immutable_with_fixed_fields(name, records):
    record = records[name]
    assert type(record)._fields == RECORD_FIELDS[name]
    for field in RECORD_FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):     # a subclass without __slots__ = () takes it
        record.note = "extra"


HELP_TEXT = json.loads((Path(__file__).parent / "help_text.json").read_text())


@pytest.mark.parametrize("argv", sorted(HELP_TEXT))
def test_parser_text_is_unchanged(argv, monkeypatch, capsys):
    # what the parser prints at 80 columns: each --help, and a usage error
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(argv.split())
    captured = capsys.readouterr()
    if argv.endswith("--help"):
        assert (exit_.value.code, captured.out, captured.err) == (0, HELP_TEXT[argv], "")
    else:
        assert (exit_.value.code, captured.out, captured.err) == (2, "", HELP_TEXT[argv])
