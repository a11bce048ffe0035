"""The benchmark's workloads, generated from a seed, and the correctness gate.

Each workload is a list of CLI invocations run once each per pass.  The seed
only chooses inputs whose mathematical answer is known not to depend on the
choice: which distinct prime each pair q_ij gets (distinct primes are
multiplicatively independent, so the result equals the symbolic one), the
order of the four q values of verify-rank, and the q of the one-parameter
hyperplane (the answer is the same for every q other than +-1).  The
recorded expectations in expected.json therefore hold for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# four 61-bit primes: equal size keeps the rank cost the same for every seed,
# and entries this large make exact rank the largest layer of verify-rank
RANK_Q = ("2305843009213693951", "2305843009213693921",
          "2305843009213693907", "2305843009213693723")
ONE_PARAMETER_Q = ("1/2", "2", "3", "1/3")

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("verify-assembly", "verify-rank", "verify-koszul", "report-sweep")

# every invocation here is expected to succeed; truncated enumerations are
# accepted with --allow-truncated
EXIT_OK = 0


@dataclass(frozen=True)
class Invocation:
    """One CLI call; expect names its recorded result in expected.json."""

    name: str
    argv: tuple[str, ...]
    expect: str

    def with_out(self, path: Path) -> list[str]:
        return [*self.argv, "--out", str(path)]


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def prime_flags(n: int, rng: random.Random) -> tuple[str, ...]:
    """--q flags giving the pairs of n generators the first primes, permuted."""
    pairs = _pairs(n)
    primes = list(PRIMES[:len(pairs)])
    rng.shuffle(primes)
    return tuple(flag for (i, j), p in zip(pairs, primes)
                 for flag in ("--q", f"{i},{j},{p}"))


def build(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """The invocations of one workload; may write config files to workdir."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-assembly":
        return [Invocation("verify-assembly",
                           ("verify", "--n", "4", "--bound", "4", *prime_flags(4, rng)),
                           "verify-n4-b4")]
    if workload == "verify-rank":
        q = rng.choice(RANK_Q)
        return [Invocation("verify-rank",
                           ("verify", "--n", "2", "--bound", "8", "--q", f"1,2,{q}"),
                           "verify-n2-b8")]
    if workload == "verify-koszul":
        base = ("verify", "--n", "4", "--bound", "5", "--nmax", "0")
        return [Invocation("verify-koszul-numeric", (*base, *prime_flags(4, rng)),
                           "verify-n4-b5-nmax0"),
                Invocation("verify-koszul-symbolic", (*base, "--symbolic"),
                           "verify-n4-b5-nmax0")]
    if workload == "report-sweep":
        q = rng.choice(ONE_PARAMETER_Q)
        config = workdir / "one-parameter.json"
        config.write_text(json.dumps({
            "n": 10, "mode": "numeric", "bound": 30,
            "q": [[i, j, str(1 / Fraction(q))] for i, j in _pairs(10)]}))
        flags = ("--n", "6", "--bound", "11", "--allow-truncated")
        return [
            Invocation("homology-symbolic", ("homology", "--symbolic", *flags),
                       "homology-n6-b11"),
            Invocation("homology-numeric", ("homology", *flags, *prime_flags(6, rng)),
                       "homology-n6-b11"),
            Invocation("homology-one-parameter",
                       ("homology", "--config", str(config), "--allow-truncated"),
                       "homology-one-parameter-n10-b30"),
            Invocation("csigma-identity",
                       ("csigma", "--symbolic", "--automorphism", "identity", *flags),
                       "csigma-identity-n6-b11"),
            Invocation("generic-check",
                       ("generic-check", "--n", "6", "--bound", "11",
                        *prime_flags(6, rng)),
                       "generic-n6-b11"),
            Invocation("homology-solve-top",
                       ("homology", "--symbolic", "--n", "5", "--automorphism",
                        "solve-top", "--alpha", "1,0,2,0,1", "--bound", "12",
                        "--allow-truncated"),
                       "homology-solve-top-n5-b12"),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# the correctness gate

def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def digest(command: str, document: dict) -> str:
    """Hash of the mathematical content of a report: the Betti list, the
    admissible members and the generic verdict.  The completeness flag and
    the format version are left out on purpose."""
    if command == "homology":
        body = {"betti": document["betti"],
                "members": document["admissible"]["members"]}
    elif command == "csigma":
        body = {"members": document["members"]}
    elif command == "generic-check":
        body = {"generic": document["generic"]}
    else:
        raise ValueError(f"no digest for command {command!r}")
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(inv: Invocation, rc, error: str | None, report: Path,
          expected: dict) -> list[str]:
    """Reasons the invocation failed; empty when it passed."""
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    if rc != EXIT_OK:
        return [f"exit code {rc}, expected {EXIT_OK}"]
    want = expected[inv.expect]
    try:
        document = json.loads(report.read_text())
        if inv.argv[0] != "verify":
            found = digest(inv.argv[0], document)
            return [] if found == want["digest"] else [f"digest {found[:12]} differs"]
        reasons = []
        if document["agreement"] is not True:
            reasons.append("oracle and Koszul prediction disagree")
        if len(document["cells"]) != want["cells"]:
            reasons.append(f"{len(document['cells'])} cells, expected {want['cells']}")
        if any(cell["skipped"] for cell in document["cells"]):
            reasons.append("cells skipped")
        if document["top_class"]["present"] is not True:
            reasons.append("top class absent")
        return reasons
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"report unreadable: {type(e).__name__}: {e}"]
