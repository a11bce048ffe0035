"""Command-line front end.

Commands: homology | verify | csigma | canonical | generic-check.
Configuration comes from flags and a JSON config file with the keys n, q,
mode, automorphism, bound and n_max only; q values are exact rational
strings, never floats.  The q values of the file and of --q are combined,
every other flag replaces the file's key (--symbolic its mode), and --p,
--alpha, --cap, --out, --allow-truncated and --expect-top exist only as
flags.  Structured reports are single JSON documents with the field names
frozen in docs/format.md; this module builds every field from the plain
results the library returns, and the same configuration gives the same bytes.

Exit codes: 0 ok; 1 verification failed (an oracle cell disagrees with the
Koszul prediction, a cell was skipped because its chain spaces exceed
--cap, a Koszul self-check failed, or a required top class is absent);
2 bad configuration, including a config file that cannot be read or
decoded, a p_i too long to write and an --out path that cannot be written;
3 truncated enumeration without --allow-truncated; 141 (128 + SIGPIPE)
stdout was closed before the run had printed everything, as in
`qhyperplane ... | head -1`.  Every command writes its --out report before
it prints anything, so the report is complete whenever the code is not 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain, compress, starmap
from json.encoder import encode_basestring_ascii

from .hochschild import DEFAULT_CELL_CAP, ComparisonCell, compare_with_koszul
from .homology import (AdmissibleSet, DegreeSlice, HomologyReport, build_report,
                       enumerate_admissible)
from .hyperplane import (AlgebraSpec, NUMERIC, SYMBOLIC, ScalingAutomorphism,
                         add_index, automorphism_for_top_class,
                         canonical_automorphism, is_admissible, is_generic)
from .koszul import CheckReport, ReducedComplex, check_complex
from .qscalar import all_pairs, distinct_primes

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_CONFIG = 2
EXIT_TRUNCATED = 3
EXIT_BROKEN_PIPE = 141

FORMAT_VERSION = "qhyperplane-report/2"

CANONICAL = "canonical"
IDENTITY = "identity"
EXPLICIT = "explicit"
SOLVE_TOP = "solve-top"

CONFIG_KEYS = ("n", "q", "mode", "automorphism", "bound", "n_max")

ALPHA_LIMIT = (1 << 32) - 1    # alpha_i + 1, a q exponent in p, stays below 2^32


class ConfigError(Exception):
    pass


class RunConfig(namedtuple("RunConfig", "n mode q_values automorphism p_list alpha "
                                         "bound n_max out allow_truncated expect_top cap")):
    """One run's validated settings: q_values a sorted tuple of (i, j,
    Fraction), p_list a tuple of Fractions for the explicit twist and alpha a
    tuple of ints for solve-top, each None otherwise, and out a path or None."""

    __slots__ = ()

    def build_spec(self) -> AlgebraSpec:
        if self.mode == SYMBOLIC:
            return AlgebraSpec.symbolic(self.n)
        return AlgebraSpec.numeric(self.n, {(i, j): v for i, j, v in self.q_values})

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
    """An optional sign and ASCII digits, then an optional / and more."""
    try:
        if re.fullmatch("[-+]?[0-9]+(/[0-9]+)?", text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):     # ValueError: too many digits
        pass
    raise ConfigError(f"not an exact rational: {text!r}")


def parse_int(text) -> int:
    """An optional sign and ASCII digits; str() refuses 2.5 and true from JSON."""
    try:
        if re.fullmatch("[-+]?[0-9]+", str(text)):
            return int(text)
    except ValueError:      # more digits than int() converts
        pass
    raise ConfigError(f"not an integer: {text!r}")


def build_config(args: argparse.Namespace) -> RunConfig:
    settings = {}
    if args.config:
        try:
            with open(args.config) as f:
                settings = json.load(f)
        except (OSError, ValueError, RecursionError) as e:
            # ValueError: bad bytes, JSON or an overlong int; RecursionError: deep nesting
            raise ConfigError(f"cannot read config file: {e}")
        if not isinstance(settings, dict):
            raise ConfigError("the config file must hold a JSON object")
        unknown = sorted(set(settings) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; "
                              f"allowed: {', '.join(CONFIG_KEYS)}")
        # checked before the flags are laid over: --symbolic replaces mode
        if settings.get("mode", SYMBOLIC) not in (SYMBOLIC, NUMERIC):
            raise ConfigError(f"mode must be {SYMBOLIC!r} or {NUMERIC!r}, "
                              f"not {settings['mode']!r}")
        if not isinstance(settings.get("q", []), list):
            raise ConfigError("q in the config file must be a list of [i, j, value]")
    flags = {"n": args.n, "automorphism": args.automorphism, "bound": args.bound,
             "n_max": args.nmax, "mode": SYMBOLIC if args.symbolic else None}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    settings["q"] = settings.get("q", []) + [item.split(",") for item in args.q or []]

    if settings.get("n") is None:
        raise ConfigError("the number of generators is required (--n)")
    n = parse_int(settings["n"])
    bound = parse_int(settings.get("bound", 2 * n))
    n_max = parse_int(settings.get("n_max", n))
    cap = parse_int(args.cap)
    for flag, value, least in (("--n", n, 1), ("--bound", bound, 0),
                               ("--nmax", n_max, 0), ("--cap", cap, 1)):
        if value < least:
            raise ConfigError(f"{flag} must be at least {least}")

    q_entries: list[tuple[int, int, Fraction]] = []
    for entry in settings["q"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(f"q wants i,j,value but got {entry!r}")
        i, j = parse_int(entry[0]), parse_int(entry[1])
        if not (1 <= i < j <= n):
            raise ConfigError(f"q pair ({i},{j}) needs 1 <= i < j <= {n}")
        v = parse_fraction(str(entry[2]))
        if v == 0:
            raise ConfigError(f"q({i},{j}) must be nonzero")
        q_entries.append((i, j, v))

    # the given mode, else numeric exactly when there are q values to use
    mode = settings.get("mode") or (NUMERIC if q_entries or args.auto_primes else SYMBOLIC)
    if mode == SYMBOLIC and (q_entries or args.auto_primes):
        raise ConfigError("symbolic mode excludes q values and --auto-primes")
    if args.auto_primes:
        if q_entries:
            raise ConfigError("--auto-primes excludes q values")
        q_entries = [(i, j, v) for (i, j), v in distinct_primes(n).items()]
    have = {(i, j) for i, j, _ in q_entries}
    missing = [p for p in all_pairs(n) if p not in have]
    if mode == NUMERIC and missing:
        raise ConfigError(f"numeric mode needs every pair; missing {missing}")
    if len(have) != len(q_entries):
        raise ConfigError("duplicate q pair")

    if args.command in ("canonical", "generic-check") and "automorphism" in settings:
        raise ConfigError(f"{args.command} takes no automorphism")
    automorphism = settings.get("automorphism", CANONICAL)
    if automorphism not in (CANONICAL, IDENTITY, EXPLICIT, SOLVE_TOP):
        raise ConfigError(f"unknown automorphism {automorphism!r}")
    p_list = alpha = None
    if args.p and automorphism != EXPLICIT:
        raise ConfigError("--p needs --automorphism explicit")
    if automorphism == EXPLICIT:
        p_list = tuple(parse_fraction(x) for x in args.p.split(",")) if args.p else ()
        if len(p_list) != n or 0 in p_list:
            raise ConfigError("explicit automorphism needs --p with N nonzero entries")
    if args.alpha and automorphism != SOLVE_TOP:
        raise ConfigError(f"--alpha needs --automorphism {SOLVE_TOP}")
    if automorphism == SOLVE_TOP:
        alpha = tuple(parse_int(x) for x in args.alpha.split(",")) if args.alpha else ()
        if len(alpha) != n or any(not 0 <= a < ALPHA_LIMIT for a in alpha):
            raise ConfigError("solve-top needs --alpha with N nonnegative entries "
                              f"below {ALPHA_LIMIT}")

    return RunConfig(n=n, mode=mode, q_values=tuple(sorted(q_entries)),
                     automorphism=automorphism, p_list=p_list, alpha=alpha,
                     bound=bound, n_max=n_max, out=args.out,
                     allow_truncated=args.allow_truncated,
                     expect_top=args.expect_top,
                     cap=cap)


# ---------------------------------------------------------------------------
# output helpers

def _write_json(write, obj, nl: str = "\n") -> None:
    """Write obj byte for byte as json.dumps(obj, indent=2, sort_keys=True).

    Only str-keyed dicts, lists, str, int, bool and None are written; any
    other type, a float or a tuple say, raises TypeError.  A list of plain
    ints (a multi-index) goes out as one string.  A list of same-shape records
    (_record_template) is checked whole first, then written one record per write."""
    kind = type(obj)
    if kind is str:
        write(encode_basestring_ascii(obj))
    elif kind is int:
        write(int.__repr__(obj))
    elif obj is None or obj is True or obj is False:
        write("null" if obj is None else "true" if obj else "false")
    elif kind is not list and kind is not dict:
        raise TypeError(f"a report cannot hold {kind.__name__} {obj!r}")
    elif not obj:
        write("[]" if kind is list else "{}")
    elif kind is list:
        inner = nl + "  "
        if set(map(type, obj)) == {int}:
            write("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
        elif records := _record_template(obj, inner):
            template, rows = records
            write(("[" + inner + template) % next(rows))
            # map drops each row before the next, so zip refills one tuple
            for text in map(("," + inner + template).__mod__, rows):
                write(text)
            write(nl + "]")
        else:
            sep = "[" + inner
            for item in obj:
                write(sep)
                _write_json(write, item, inner)
                sep = "," + inner
            write(nl + "]")
    else:
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):     # a key that is no str raises TypeError
            write(sep + encode_basestring_ascii(key) + ": ")
            _write_json(write, obj[key], inner)
            sep = "," + inner
        write(nl + "}")


def _record_template(records: list, inner: str):
    """(template, rows), template % row being each record as _write_json
    writes it at indent inner; None unless every record is a dict with the
    first one's str keys, each value an int, true, false, null or a nonempty
    list of ints as long as the first's.  Exact type tests; writes nothing."""
    first = records[0]
    if (set(map(type, records)) != {dict} or set(map(type, first)) != {str}
            or not all(map(first.keys().__eq__, map(dict.keys, records)))):
        return None
    key_inner, item_inner = inner + "  ", inner + "    "
    fields, slots, width = [], [], 0
    for key in sorted(first):
        column = [record[key] for record in records]
        kinds = set(map(type, column))
        if kinds <= {int, bool, type(None)}:
            value, length = "%s", 1
            slots.append(zip(column if kinds == {int} else [v if type(v) is int else
                             "null" if v is None else "true" if v else "false" for v in column]))
        elif (kinds == {list} and (length := len(first[key]))
              and set(map(len, column)) == {length}
              and set(map(type, chain.from_iterable(column))) == {int}):
            value = ("[" + item_inner + ("," + item_inner).join(["%d"] * length)
                     + key_inner + "]")
            slots.append(column)
        else:
            return None
        fields.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + value)
        width += length
    values = chain.from_iterable(chain.from_iterable(zip(*slots)))
    return ("{" + key_inner + ("," + key_inner).join(fields) + inner + "}",
            zip(*[values] * width))


def _admissible_doc(admissible: AdmissibleSet, bound: int) -> dict:
    return {"members": [list(g) for g in admissible.members],
            "bound": bound, "complete": admissible.complete}


def _slice_doc(s: DegreeSlice) -> dict:
    return {"n": s.n, "betti": s.betti,
            "generators": [{"alpha": list(a), "beta": list(b)} for a, b in s.generators],
            "grading": [{"gamma": list(g), "count": c} for g, c in s.grading]}


def _p_text(sigma: ScalingAutomorphism) -> list[str]:
    """The p_i as strings; str() refuses an int longer than the sys limit."""
    try:
        return [str(c) for c in sigma.p]
    except ValueError:
        raise ConfigError(f"a p_i has over {sys.get_int_max_str_digits()} digits") from None


def _homology_doc(config: RunConfig, p: list[str], report: HomologyReport) -> dict:
    return {"mode": config.mode, "n": config.n, "bound": config.bound,
            "n_max": config.n_max, "sigma": p,
            "truncated": report.truncated,
            "admissible": _admissible_doc(report.admissible, config.bound),
            "betti": report.betti_list(),
            "degrees": [_slice_doc(s) for s in report.slices]}


def _check_doc(check: CheckReport, bound: int) -> dict:
    return {"passed": check.passed, "checked": check.checked,
            "bound": bound, "failures": list(check.failures)}


def _cell_doc(cell: ComparisonCell) -> dict:
    return {"gamma": list(cell.gamma), "n": cell.n,
            "natural_oracle": cell.natural_oracle,
            "natural_predicted": cell.natural_predicted,
            "match": cell.match, "skipped": cell.skipped}


def _emit(config: RunConfig, command: str, payload: dict) -> None:
    """Write command's report, headed by format, command and config, to --out."""
    if config.out:
        document = {"format": FORMAT_VERSION, "command": command,
                    "config": config.echo(), **payload}
        try:
            with open(config.out, "w", encoding="ascii") as f:
                _write_json(f.write, document)
                f.write("\n")
        except OSError as e:
            raise ConfigError(f"cannot write --out {config.out}: {e.strerror or e}")


def _truncation_exit(config: RunConfig, complete: bool) -> int:
    """EXIT_TRUNCATED, with a note on stderr, for an incomplete enumeration
    that --allow-truncated does not accept."""
    if complete or config.allow_truncated:
        return EXIT_OK
    print("enumeration truncated at the bound; pass --allow-truncated to accept",
          file=sys.stderr)
    return EXIT_TRUNCATED


def _generator_labels(n: int):
    """label(alpha, beta) for N generators, such as "x1^2 x3 dx1 dx3", or
    "1" for the unit; the x_i and dx_i names are built once."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    dxs = [f"d{x}" for x in xs]

    def label(alpha, beta) -> str:
        parts = [f"{x}^{a}" if a > 1 else x for x, a in zip(xs, alpha) if a]
        parts += compress(dxs, beta)
        return " ".join(parts) or "1"
    return label


def _print_homology_table(config: RunConfig, p: list[str], report: HomologyReport) -> None:
    label = _generator_labels(config.n)
    lines = [f"twisted homology: N={config.n} mode={config.mode} "
             f"bound={config.bound} truncated={report.truncated}",
             f"sigma: p = ({', '.join(p)})"]
    lines += [f"  n={s.n}  betti={s.betti}  [{', '.join(starmap(label, s.generators))}]"
              for s in report.slices]
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# commands

def cmd_homology(config: RunConfig) -> int:
    spec = config.build_spec()
    sigma = config.build_sigma(spec)
    p = _p_text(sigma)
    report = build_report(spec, sigma, config.bound, config.n_max)
    _emit(config, "homology", _homology_doc(config, p, report))
    _print_homology_table(config, p, report)
    return _truncation_exit(config, not report.truncated)


def cmd_verify(config: RunConfig) -> int:
    spec = config.build_spec()
    sigma = config.build_sigma(spec)
    comparison = compare_with_koszul(spec, sigma, config.n_max, config.bound,
                                     cap=config.cap)
    d2, homotopy = check_complex(ReducedComplex(spec, sigma), config.bound)

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

    _emit(config, "verify", {
        "agreement": comparison.agreement,
        "cells": [_cell_doc(cell) for cell in comparison.cells],
        "checks": {"d_squared": _check_doc(d2, config.bound),
                   "homotopy_identity": _check_doc(homotopy, config.bound)},
        "top_class": {"expected_gamma": list(top_gamma),
                      "present": top_present,
                      "required": top_promised},
        "failures": failures})

    print(f"verify: N={spec.n} bound={config.bound} n_max={config.n_max}")
    print(f"  koszul/oracle agreement: {comparison.agreement} "
          f"({total - skipped}/{total} cells checked)")
    print(f"  d^2 = 0: {d2.passed} ({d2.checked} elements)")
    print(f"  dh + hd = D*id: {homotopy.passed} ({homotopy.checked} elements)")
    print(f"  top class present: {top_present}"
          + (" (required)" if top_promised else ""))
    for cell in mismatches:
        print(f"  MISMATCH {_cell_doc(cell)}")
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_csigma(config: RunConfig) -> int:
    spec = config.build_spec()
    sigma = config.build_sigma(spec)
    admissible = enumerate_admissible(spec, sigma, config.bound)
    _emit(config, "csigma", _admissible_doc(admissible, config.bound))
    print(f"admissible multidegrees up to |gamma| <= {config.bound} "
          f"(complete={admissible.complete}):")
    for gamma in admissible.members:
        print(f"  {gamma}")
    return _truncation_exit(config, admissible.complete)


def cmd_canonical(config: RunConfig) -> int:
    spec = config.build_spec()
    p = _p_text(canonical_automorphism(spec))
    _emit(config, "canonical", {"p": p})
    print("canonical scaling automorphism:")
    for i, c in enumerate(p, start=1):
        print(f"  p_{i} = {c}")
    return EXIT_OK


def cmd_generic_check(config: RunConfig) -> int:
    spec = config.build_spec()
    bound = max(config.bound, 2)
    witness = is_generic(spec, bound)
    structural = spec.mode == SYMBOLIC
    _emit(config, "generic-check", {
        "generic": witness is None, "witness": list(witness) if witness else None,
        "bound": bound, "structural": structural})
    if structural:
        print("generic (structurally)")
    elif witness is None:
        print(f"generic up to |gamma| <= {bound}")
    else:
        print(f"NOT generic: witness {witness}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)     # every command's flags
    shared.add_argument("--n", default=None, help="number of generators")
    shared.add_argument("--q", action="append", metavar="I,J,VALUE",
                        help="numeric value of q_ij as an exact rational")
    shared.add_argument("--symbolic", action="store_true",
                        help="independent symbolic parameters (generic regime)")
    shared.add_argument("--auto-primes", action="store_true",
                        help="numeric mode with distinct primes")
    shared.add_argument("--automorphism", default=None,
                        choices=[CANONICAL, IDENTITY, EXPLICIT, SOLVE_TOP])
    shared.add_argument("--p", default=None, help="explicit p list, comma separated")
    shared.add_argument("--alpha", default=None,
                        help="multi-index for solve-top, comma separated")
    shared.add_argument("--bound", default=None,
                        help="total-degree bound (default 2N)")
    shared.add_argument("--nmax", default=None,
                        help="largest homological degree (default N)")
    shared.add_argument("--out", default=None, help="write the JSON report here")
    shared.add_argument("--allow-truncated", action="store_true")
    shared.add_argument("--expect-top", action="store_true",
                        help="fail verification if the top class is absent")
    shared.add_argument("--cap", default=DEFAULT_CELL_CAP,
                        help="skip a cell (gamma, n) when a normalized chain space "
                             "at gamma of degree 0..n+1 holds more tensors than "
                             "this (at least 1)")
    shared.add_argument("--config", default=None, help="JSON config file")
    parser = argparse.ArgumentParser(
        prog="qhyperplane",
        description="Exact twisted Hochschild homology of quantum hyperplanes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[shared])
    return parser


COMMANDS = {
    "homology": cmd_homology,
    "verify": cmd_verify,
    "csigma": cmd_csigma,
    "canonical": cmd_canonical,
    "generic-check": cmd_generic_check,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):    # argparse reads "-2,3" as an option
        if argv[k - 1] in ("--p", "--alpha") and argv[k][:1] == "-" and argv[k][1:2].isdigit():
            argv[k - 1:k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        return COMMANDS[args.command](config)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE


def script_entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # the reader is gone: what is still buffered goes to the null
        # device, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    script_entry()
