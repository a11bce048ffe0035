"""Command-line front end.

Commands: homology | verify | csigma | canonical | generic-check.
Configuration comes from flags or a JSON config file (flags win); q values
are exact rational strings, never floats.  Structured reports are single
JSON documents with the field names frozen in docs/format.md; identical
configuration produces byte-identical output.

Exit codes: 0 ok; 1 verification failed (an oracle cell disagrees with the
Koszul prediction, a cell was skipped because its chain basis exceeds
--cap, a Koszul self-check failed, or a required top class is absent);
2 bad configuration; 3 truncated enumeration without --allow-truncated.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .hochschild import DEFAULT_CELL_CAP, compare_with_koszul
from .homology import HomologyReport, build_report, enumerate_admissible
from .hyperplane import (AlgebraSpec, NUMERIC, SYMBOLIC, ScalingAutomorphism,
                         add_index, automorphism_for_top_class,
                         canonical_automorphism, is_admissible, is_generic)
from .koszul import check_d_squared, check_homotopy_identity
from .qscalar import NumericAssignment, all_pairs

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_CONFIG = 2
EXIT_TRUNCATED = 3

FORMAT_VERSION = "qhyperplane-report/2"

CANONICAL = "canonical"
IDENTITY = "identity"
EXPLICIT = "explicit"
SOLVE_TOP = "solve-top"


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    n: int
    mode: str
    q_values: tuple[tuple[int, int, Fraction], ...]
    automorphism: str
    p_list: tuple[Fraction, ...] | None
    alpha: tuple[int, ...] | None
    bound: int
    n_max: int
    out: str | None
    allow_truncated: bool
    expect_top: bool
    cap: int

    def build_spec(self) -> AlgebraSpec:
        if self.mode == SYMBOLIC:
            return AlgebraSpec.symbolic(self.n)
        return AlgebraSpec.numeric(self.n, NumericAssignment(
            {(i, j): v for i, j, v in self.q_values}))

    def build_sigma(self, spec: AlgebraSpec) -> ScalingAutomorphism:
        if self.automorphism == CANONICAL:
            return canonical_automorphism(spec)
        if self.automorphism == IDENTITY:
            return ScalingAutomorphism.identity(spec.n)
        if self.automorphism == EXPLICIT:
            return ScalingAutomorphism.from_rationals(self.p_list)
        return automorphism_for_top_class(spec, self.alpha)

    def echo(self) -> dict:
        return {"n": self.n,
                "mode": self.mode,
                "q": [[i, j, str(v)] for i, j, v in self.q_values],
                "automorphism": {
                    "kind": self.automorphism,
                    "p": [str(v) for v in self.p_list] if self.p_list else None,
                    "alpha": list(self.alpha) if self.alpha else None},
                "bound": self.bound,
                "n_max": self.n_max,
                "allow_truncated": self.allow_truncated}


def parse_fraction(text: str) -> Fraction:
    try:
        if "." in text or "e" in text.lower():
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"not an exact rational: {text!r}")


def parse_int(text) -> int:
    try:
        return int(str(text))       # str() rejects 2.5 and true from JSON
    except ValueError:
        raise ConfigError(f"not an integer: {text!r}")


def build_config(args: argparse.Namespace) -> RunConfig:
    file_config = {}
    if args.config:
        try:
            file_config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config file: {e}")
        if not isinstance(file_config, dict):
            raise ConfigError("the config file must hold a JSON object")

    n = args.n if args.n is not None else file_config.get("n")
    if n is None:
        raise ConfigError("the number of generators is required (--n)")
    n = parse_int(n)
    if n < 1:
        raise ConfigError("--n must be at least 1")

    q_entries: list[tuple[int, int, Fraction]] = []
    raw_q = file_config.get("q", [])
    if not isinstance(raw_q, list):
        raise ConfigError("q in the config file must be a list of [i, j, value]")
    raw_q = raw_q + [item.split(",") for item in args.q or []]
    for entry in raw_q:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(f"q wants i,j,value but got {entry!r}")
        i, j = parse_int(entry[0]), parse_int(entry[1])
        if not (1 <= i < j <= n):
            raise ConfigError(f"q pair ({i},{j}) needs 1 <= i < j <= {n}")
        v = parse_fraction(str(entry[2]))
        if v == 0:
            raise ConfigError(f"q({i},{j}) must be nonzero")
        q_entries.append((i, j, v))

    symbolic = args.symbolic or (not q_entries and not args.auto_primes
                                 and file_config.get("mode", SYMBOLIC) == SYMBOLIC)
    if args.symbolic and (q_entries or args.auto_primes):
        raise ConfigError("--symbolic excludes --q and --auto-primes")
    if args.auto_primes:
        assignment = NumericAssignment.distinct_primes(n)
        q_entries = [(i, j, assignment.value(i, j)) for i, j in all_pairs(n)]
    if symbolic:
        mode = SYMBOLIC
        q_entries = []
    else:
        mode = NUMERIC
        have = {(i, j) for i, j, _ in q_entries}
        missing = [p for p in all_pairs(n) if p not in have]
        if missing:
            raise ConfigError(f"numeric mode needs every pair; missing {missing}")
        if len(have) != len(q_entries):
            raise ConfigError("duplicate q pair")

    automorphism = args.automorphism or file_config.get("automorphism", CANONICAL)
    if automorphism not in (CANONICAL, IDENTITY, EXPLICIT, SOLVE_TOP):
        raise ConfigError(f"unknown automorphism {automorphism!r}")
    p_list = None
    if args.p:
        p_list = tuple(parse_fraction(x) for x in args.p.split(","))
    if automorphism == EXPLICIT:
        if p_list is None or len(p_list) != n:
            raise ConfigError("explicit automorphism needs --p with N entries")
        if any(v == 0 for v in p_list):
            raise ConfigError("explicit p entries must be nonzero")
    alpha = None
    if args.alpha:
        alpha = tuple(parse_int(x) for x in args.alpha.split(","))
    if automorphism == SOLVE_TOP:
        if alpha is None or len(alpha) != n or any(a < 0 for a in alpha):
            raise ConfigError("solve-top needs --alpha with N nonnegative entries")

    bound = args.bound if args.bound is not None else parse_int(file_config.get("bound", 2 * n))
    if bound < 0:
        raise ConfigError("--bound must be nonnegative")
    n_max = args.nmax if args.nmax is not None else parse_int(file_config.get("n_max", n))
    if n_max < 0:
        raise ConfigError("--nmax must be nonnegative")
    if args.cap < 1:
        raise ConfigError("--cap must be at least 1")

    return RunConfig(n=n, mode=mode, q_values=tuple(sorted(q_entries)),
                     automorphism=automorphism, p_list=p_list, alpha=alpha,
                     bound=bound, n_max=n_max, out=args.out,
                     allow_truncated=args.allow_truncated,
                     expect_top=args.expect_top,
                     cap=args.cap)


# ---------------------------------------------------------------------------
# output helpers

def _emit(config: RunConfig, document: dict) -> None:
    if config.out:
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        Path(config.out).write_text(text)


def _document(config: RunConfig, command: str, payload: dict) -> dict:
    doc = {"format": FORMAT_VERSION, "command": command, "config": config.echo()}
    doc.update(payload)
    return doc


def _generator_label(alpha, beta) -> str:
    symmetric = " ".join(f"x{i+1}" + (f"^{a}" if a > 1 else "")
                         for i, a in enumerate(alpha) if a)
    exterior = " ".join(f"dx{i+1}" for i, b in enumerate(beta) if b)
    return " ".join(part for part in (symmetric, exterior) if part) or "1"


def _print_homology_table(report: HomologyReport) -> None:
    print(f"twisted homology: N={report.spec.n} mode={report.spec.mode} "
          f"bound={report.bound} truncated={report.truncated}")
    print(f"sigma: p = ({', '.join(str(c) for c in report.sigma.p)})")
    for s in report.slices:
        labels = ", ".join(_generator_label(a, b) for a, b in s.generators)
        print(f"  n={s.n}  betti={s.betti}  [{labels}]")


# ---------------------------------------------------------------------------
# commands

def cmd_homology(config: RunConfig) -> int:
    spec = config.build_spec()
    sigma = config.build_sigma(spec)
    report = build_report(spec, sigma, config.bound, config.n_max)
    _print_homology_table(report)
    document = _document(config, "homology", report.to_dict())
    _emit(config, document)
    if report.truncated and not config.allow_truncated:
        print("enumeration truncated at the bound; pass --allow-truncated to accept",
              file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    spec = config.build_spec()
    sigma = config.build_sigma(spec)
    comparison = compare_with_koszul(spec, sigma, config.n_max, config.bound,
                                     cap=config.cap)
    d2 = check_d_squared(spec, sigma, config.bound)
    homotopy = check_homotopy_identity(spec, sigma, config.bound)

    # the promised top class is x^alpha (x) x_1 ^ ... ^ x_N (alpha = 0 unless
    # solve-top); it survives exactly when its multidegree is admissible
    ones = (1,) * spec.n
    top_gamma = add_index(config.alpha, ones) if config.automorphism == SOLVE_TOP else ones
    top_present = is_admissible(spec, sigma, top_gamma)
    top_promised = config.automorphism in (CANONICAL, SOLVE_TOP) or config.expect_top

    mismatches = comparison.mismatches()
    skipped = len(comparison.skipped_cells)
    total = len(comparison.cells)
    failures = []
    if mismatches:
        failures.append(f"{len(mismatches)} cell mismatches")
    if skipped:
        failures.append(f"{skipped} of {total} cells skipped: "
                        f"chain basis over --cap {config.cap}")
    if not d2.passed:
        failures.append("d^2 != 0")
    if not homotopy.passed:
        failures.append("homotopy identity failed")
    if top_promised and not top_present:
        failures.append("promised top class is absent")

    print(f"verify: N={spec.n} bound={config.bound} n_max={config.n_max}")
    print(f"  koszul/oracle agreement: {comparison.agreement} "
          f"({total - skipped}/{total} cells checked)")
    print(f"  d^2 = 0: {d2.passed} ({d2.checked} elements)")
    print(f"  dh + hd = id: {homotopy.passed} ({homotopy.checked} elements)")
    print(f"  top class present: {top_present}"
          + (" (required)" if top_promised else ""))
    for cell in mismatches:
        print(f"  MISMATCH {cell.to_dict()}")

    document = _document(config, "verify", {
        "agreement": comparison.agreement,
        "cells": [cell.to_dict() for cell in comparison.cells],
        "checks": {"d_squared": d2.to_dict(),
                   "homotopy_identity": homotopy.to_dict()},
        "top_class": {"expected_gamma": list(top_gamma),
                      "present": top_present,
                      "required": top_promised},
        "failures": failures})
    _emit(config, document)
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_csigma(config: RunConfig) -> int:
    spec = config.build_spec()
    sigma = config.build_sigma(spec)
    admissible = enumerate_admissible(spec, sigma, config.bound)
    print(f"admissible multidegrees up to |gamma| <= {config.bound} "
          f"(complete={admissible.complete}):")
    for gamma in admissible.members:
        print(f"  {gamma}")
    _emit(config, _document(config, "csigma", admissible.to_dict()))
    if not admissible.complete and not config.allow_truncated:
        print("enumeration truncated at the bound; pass --allow-truncated to accept",
              file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_canonical(config: RunConfig) -> int:
    spec = config.build_spec()
    sigma = canonical_automorphism(spec)
    print("canonical scaling automorphism:")
    for i, c in enumerate(sigma.p, start=1):
        print(f"  p_{i} = {c}")
    _emit(config, _document(config, "canonical",
                            {"p": [str(c) for c in sigma.p]}))
    return EXIT_OK


def cmd_generic_check(config: RunConfig) -> int:
    spec = config.build_spec()
    report = is_generic(spec, max(config.bound, 2))
    if report.structural:
        print("generic (structurally)")
    elif report.generic:
        print(f"generic up to |gamma| <= {report.bound}")
    else:
        print(f"NOT generic: witness {report.witness}")
    _emit(config, _document(config, "generic-check", report.to_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhyperplane",
        description="Exact twisted Hochschild homology of quantum hyperplanes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("homology", "verify", "csigma", "canonical", "generic-check"):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=None, help="number of generators")
        p.add_argument("--q", action="append", metavar="I,J,VALUE",
                       help="numeric value of q_ij as an exact rational")
        p.add_argument("--symbolic", action="store_true",
                       help="independent symbolic parameters (generic regime)")
        p.add_argument("--auto-primes", action="store_true",
                       help="numeric mode with distinct primes")
        p.add_argument("--automorphism", default=None,
                       choices=[CANONICAL, IDENTITY, EXPLICIT, SOLVE_TOP])
        p.add_argument("--p", default=None, help="explicit p list, comma separated")
        p.add_argument("--alpha", default=None,
                       help="multi-index for solve-top, comma separated")
        p.add_argument("--bound", type=int, default=None,
                       help="total-degree bound (default 2N)")
        p.add_argument("--nmax", type=int, default=None,
                       help="largest homological degree (default N)")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--allow-truncated", action="store_true")
        p.add_argument("--expect-top", action="store_true",
                       help="fail verification if the top class is absent")
        p.add_argument("--cap", type=int, default=DEFAULT_CELL_CAP,
                       help="largest normalized chain basis the oracle will "
                            "build (at least 1)")
        p.add_argument("--config", default=None, help="JSON config file")
    return parser


COMMANDS = {
    "homology": cmd_homology,
    "verify": cmd_verify,
    "csigma": cmd_csigma,
    "canonical": cmd_canonical,
    "generic-check": cmd_generic_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        return COMMANDS[args.command](config)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
