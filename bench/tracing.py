"""Outside-in tracing of qhyperplane.

Spans and counters are installed by replacing the public functions each
module is entered through with wrappers, from outside the package; the
program itself is never edited.  A span carries a name, a start, an end,
the index of its parent span and the pass id.  Spans and counts stay in
memory until the pass ends.

A wrapped name that the package no longer has is recorded as missing, and
every metric that depends on it is reported as missing, never as 0.

qscalar is deliberately not wrapped: its operators run millions of times
and wrapping them would distort every timing.  Its cost shows up in the
self time of its callers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "qhyperplane"
ROOT = "invocation"

# span name -> wrapped entry points ("module:qualname")
SPAN_TARGETS: dict[str, tuple[str, ...]] = {
    "cli.config": ("qhyperplane.cli:build_parser",
                   "qhyperplane.cli:build_config",
                   "qhyperplane.cli:RunConfig.build_spec",
                   "qhyperplane.cli:RunConfig.build_sigma"),
    "cli.output": ("qhyperplane.cli:_print_homology_table",
                   "qhyperplane.cli:_emit"),
    "homology.enumerate": ("qhyperplane.homology:enumerate_admissible",),
    "homology.report": ("qhyperplane.homology:build_report",),
    "hyperplane.generic": ("qhyperplane.hyperplane:is_generic",),
    "koszul.d_squared": ("qhyperplane.koszul:check_d_squared",),
    "koszul.homotopy": ("qhyperplane.koszul:check_homotopy_identity",),
    "hochschild.compare": ("qhyperplane.hochschild:compare_with_koszul",),
    "hochschild.basis": ("qhyperplane.hochschild:HochschildComplex.basis",),
    "hochschild.assembly": ("qhyperplane.hochschild:HochschildComplex.boundary_matrix",),
    "hochschild.predict": ("qhyperplane.homology:predicted_dims",),
    "exactlinalg.rank": ("qhyperplane.exactlinalg:SparseExactMatrix.rank",),
}


# -- counter extractors: (args, kwargs, result) -> number or (key, number) ----

def _one(args, kwargs, result):
    return 1


def _members(args, kwargs, result):
    return len(result.members)


def _checked(args, kwargs, result):
    return result.checked


def _cells_checked(args, kwargs, result):
    return len(result.cells) - len(result.skipped_cells)


def _cells_skipped(args, kwargs, result):
    return len(result.skipped_cells)


def _product_pair(args, kwargs, result):
    return (args[1], args[2]), 1


def _basis_size(args, kwargs, result):
    return (id(args[0]), args[1], args[2]), len(result)


def _nnz(args, kwargs, result):
    return len(result.entries)


def _cols(args, kwargs, result):
    return result.n_cols


def _rank(args, kwargs, result):
    return result


def _entry_bits(args, kwargs, result):
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in args[0].entries.values()), default=0)


SUM, MAX, DISTINCT = "sum", "max", "distinct"

# wrapped entry point -> (metric, how it accumulates, extractor)
COUNT_TARGETS: dict[str, tuple[tuple[str, str, object], ...]] = {
    "qhyperplane.homology:scan_admissible": (
        ("homology.scan_calls", SUM, _one),),
    "qhyperplane.homology:one_parameter_admissible": (
        ("homology.solver_calls", SUM, _one),),
    "qhyperplane.homology:enumerate_admissible": (
        ("homology.admissible_members", SUM, _members),),
    "qhyperplane.hyperplane:is_admissible": (
        ("hyperplane.is_admissible_calls", SUM, _one),),
    "qhyperplane.hyperplane:monomial_product": (
        ("hyperplane.monomial_product_calls", SUM, _one),
        ("hyperplane.monomial_product_distinct", DISTINCT, _product_pair)),
    "qhyperplane.koszul:check_d_squared": (
        ("koszul.elements_checked", SUM, _checked),),
    "qhyperplane.koszul:check_homotopy_identity": (
        ("koszul.elements_checked", SUM, _checked),),
    "qhyperplane.hochschild:compare_with_koszul": (
        ("hochschild.cells_checked", SUM, _cells_checked),
        ("hochschild.cells_skipped", SUM, _cells_skipped)),
    "qhyperplane.hochschild:HochschildComplex.basis": (
        ("hochschild.basis_tensors", DISTINCT, _basis_size),),
    "qhyperplane.hochschild:HochschildComplex.boundary_matrix": (
        ("hochschild.matrices", SUM, _one),
        ("hochschild.matrix_nnz", SUM, _nnz),
        ("hochschild.max_matrix_cols", MAX, _cols)),
    "qhyperplane.exactlinalg:SparseExactMatrix.rank": (
        ("exactlinalg.rank_calls", SUM, _one),
        ("exactlinalg.rank_sum", SUM, _rank),
        ("exactlinalg.entry_max_bits", MAX, _entry_bits)),
}


def span_metrics() -> dict[str, tuple[str, ...]]:
    """Per-layer time metric -> the wrapped names it depends on."""
    return {f"{name}_s": targets for name, targets in SPAN_TARGETS.items()}


def count_metrics() -> dict[str, tuple[str, ...]]:
    """Per-layer count metric -> the wrapped names it depends on."""
    out: dict[str, tuple[str, ...]] = {}
    for target, specs in COUNT_TARGETS.items():
        for metric, _, _ in specs:
            out[metric] = out.get(metric, ()) + (target,)
    return out


# ---------------------------------------------------------------------------
# installing wrappers

class Patches:
    """Wrappers installed into the package; undo() puts the originals back."""

    def __init__(self):
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper) -> None:
        """Replace target everywhere the package refers to it.

        A module-level function is replaced in every loaded module of the
        package that imported it by name; a method is replaced on its class.
        """
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.missing.append(target)
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        if path:
            self._set(owner, attr, wrapper, original)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper, original)

    def _set(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# spans

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class Tracer:
    """Records spans; each invocation is one root span named ROOT."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))

    def enter_root(self) -> None:
        self.enter(ROOT)

    def exit(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    def install(self, patches: Patches) -> None:
        for name, targets in SPAN_TARGETS.items():
            for target in targets:
                patches.wrap(target, self._span_wrapper(name))

    def _span_wrapper(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exit()
            return wrapper
        return make


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover.

    The self times of all spans sum to the total duration of the root
    spans, so the ROOT entry is the time no wrapped layer accounts for.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    out: dict[str, float] = {}
    for span, child in zip(spans, covered):
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start) - child
    return out


# ---------------------------------------------------------------------------
# counters

class Counter:
    """Counts at the wrapped boundaries; distinct keys are per invocation."""

    def __init__(self):
        self.invocation = 0
        self.values: dict[str, float] = {}
        self.broken: dict[str, str] = {}
        self._distinct: dict[str, dict] = {}

    def install(self, patches: Patches) -> None:
        for target, specs in COUNT_TARGETS.items():
            patches.wrap(target, self._count_wrapper(specs))

    def _count_wrapper(self, specs):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                for metric, how, extract in specs:
                    self._record(metric, how, extract, args, kwargs, result)
                return result
            return wrapper
        return make

    def _record(self, metric, how, extract, args, kwargs, result) -> None:
        try:
            value = extract(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError, ValueError) as e:
            self.broken.setdefault(metric, f"{type(e).__name__}: {e}")
            return
        if how == DISTINCT:
            key, value = value
            self._distinct.setdefault(metric, {})[(self.invocation, key)] = value
        elif how == MAX:
            self.values[metric] = max(self.values.get(metric, 0), value)
        else:
            self.values[metric] = self.values.get(metric, 0) + value

    def totals(self) -> dict[str, float]:
        out = {metric: 0 for metric in count_metrics()}
        out.update(self.values)
        for metric, table in self._distinct.items():
            out[metric] = sum(table.values())
        return out
