"""Every function defined in src/ is entered when the CLI runs a fixed list of
cheap configurations, so no code survives that only the tests call.

A function is identified by its code object: each module's source is
compiled afresh and every def found among the nested constants is compared,
as a code object, with the frames that sys.setprofile sees entered.  Class
bodies, lambdas and comprehensions are not defs and are not counted.  The
few functions the CLI never reaches on purpose are allow-listed, each with
its reason; the list must name functions that exist and are not reached.
"""

import contextlib
import inspect
import io
import sys
import types
from pathlib import Path

import pytest

import qhyperplane
from qhyperplane.cli import EXIT_MISMATCH, EXIT_OK, main

SRC = Path(qhyperplane.__file__).parent

# all five commands, symbolic and numeric mode, and the canonical, identity,
# explicit and solve-top twists
CONFIGURATIONS = [
    (["homology", "--n", "2", "--bound", "4"], EXIT_OK),
    (["homology", "--n", "3", "--auto-primes", "--bound", "6", "--automorphism",
      "identity", "--allow-truncated"], EXIT_OK),
    (["homology", "--symbolic", "--n", "3", "--automorphism", "solve-top",
      "--alpha", "1,0,2", "--bound", "6"], EXIT_OK),
    (["homology", "--n", "2", "--automorphism", "explicit", "--p", "2/3,5",
      "--bound", "4"], EXIT_OK),
    (["csigma", "--n", "2", "--bound", "5", "--automorphism", "identity",
      "--allow-truncated"], EXIT_OK),
    (["canonical", "--n", "3"], EXIT_OK),
    (["canonical", "--n", "3", "--auto-primes"], EXIT_OK),
    (["generic-check", "--n", "3", "--q", "1,2,2", "--q", "1,3,3", "--q", "2,3,1",
      "--bound", "6"], EXIT_OK),
    (["generic-check", "--n", "2", "--auto-primes"], EXIT_OK),
    (["verify", "--n", "2", "--bound", "3"], EXIT_OK),
    (["verify", "--n", "2", "--q", "1,2,-1", "--bound", "5"], EXIT_OK),
    (["verify", "--n", "2", "--bound", "5", "--cap", "5"], EXIT_MISMATCH),
    (["verify", "--symbolic", "--n", "2", "--bound", "3", "--automorphism",
      "identity", "--expect-top"], EXIT_MISMATCH),
]

# "module:qualname" -> why the CLI never enters it
ALLOWED = {
    "qhyperplane.cli:script_entry":
        "the console script: it calls main, which the configurations run",
    "qhyperplane.homology:scan_admissible":
        "bench/tracing.py counts its calls by name until the bench reads the "
        "program's own metrics",
    "qhyperplane.homology:one_parameter_admissible":
        "bench/tracing.py counts its calls by name until the bench reads the "
        "program's own metrics",
    "qhyperplane.exactlinalg:SparseExactMatrix.entries":
        "the program reduces the columns by their labels; bench/tracing.py reads "
        "this view of them by (row, column label), every column built, until the "
        "bench reads the program's own metrics, and the tests compare matrices "
        "through it",
}


def defined_functions() -> dict[types.CodeType, str]:
    """Every def in src/, as its code object -> "module:qualname"."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if (const.co_flags & inspect.CO_OPTIMIZED
                            and not const.co_name.startswith("<")):
                        found[const] = f"qhyperplane.{path.stem}:{const.co_qualname}"
    return found


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """The code objects entered while the CLI runs every configuration."""
    out = str(tmp_path_factory.mktemp("reach") / "report.json")
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes = [main([*argv, "--out", out]) for argv, _ in CONFIGURATIONS]
    finally:
        sys.setprofile(previous)
    assert codes == [code for _, code in CONFIGURATIONS]
    return seen


def test_the_cli_enters_every_function_in_src(entered):
    never = sorted(name for code, name in defined_functions().items()
                   if code not in entered and name not in ALLOWED)
    assert never == []


def test_the_allow_list_names_unreached_functions_that_exist(entered):
    defined = defined_functions()
    assert sorted(set(ALLOWED) - set(defined.values())) == []
    assert sorted(name for code, name in defined.items()
                  if name in ALLOWED and code in entered) == []
