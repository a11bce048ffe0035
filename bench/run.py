"""Benchmark of qhyperplane, end to end and per layer.

    python3 bench/run.py --workload verify-assembly --seed 1 --seconds 28 --trace 0

Runs the workload as passes until --seconds are used up.  Each pass is a
fresh single-threaded Python process (bench/passrun.py) that calls
qhyperplane.cli.main once per invocation of the workload, one at a time.
Every invocation's result is checked against bench/expected.json.

--trace 0 reports the end-to-end metrics, as medians over untraced passes.
--trace 1 runs rounds of an untraced pass, a pass with timing spans on the
public entry points of each module and a pass with counters on them, and
reports the per-layer metrics as medians over rounds.  Times are scaled to a
fixed host speed (see REFERENCE_S).

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
PASS_TIMEOUT_S = 150

END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")
# Reported times are scaled to a fixed host speed.  While a pass runs its
# invocations, passrun.SpeedSampler times passrun.reference_work() every
# 50 ms; the pass's times are multiplied by REFERENCE_S over the mean sample.  The shared 2-core host this was written
# on changes speed by up to 2x within seconds to minutes, and the package's
# run time follows the samples closely, so the scaled times repeat where the
# raw ones do not.  REFERENCE_S is a fixed constant, never re-measured.
REFERENCE_S = 0.00075
TRACE_METRICS = ("trace.overhead_s", "trace.unattributed_s", "trace.wall_s")


def run_pass(pass_id: int, mode: str, invocations, workdir: Path,
             src: Path = SRC) -> dict:
    """Run one pass process and return its result."""
    plan = {"pass_id": pass_id, "mode": mode, "src": str(src),
            "invocations": [{"name": inv.name,
                             "argv": inv.with_out(workdir / f"{inv.name}.json")}
                            for inv in invocations]}
    try:
        proc = subprocess.run([sys.executable, "-I", str(BENCH_DIR / "passrun.py")],
                              input=json.dumps(plan), capture_output=True, text=True,
                              cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass {pass_id} timed out"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crashed": f"pass {pass_id} exited {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """Passes of one workload and the gate applied to every invocation."""

    def __init__(self, invocations: list[workloads.Invocation], expected: dict,
                 workdir: Path, src: Path = SRC):
        self.invocations = invocations
        self.expected = expected
        self.workdir = workdir
        self.src = src
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.missing: list[str] = []
        self._next_id = 0

    def gated_pass(self, mode: str) -> dict:
        pass_id = self._next_id
        self._next_id += 1
        result = run_pass(pass_id, mode, self.invocations, self.workdir, self.src)
        self.attempted += len(self.invocations)
        if "crashed" in result:
            self.failed += len(self.invocations)
            self.failures.append(result["crashed"])
            return result
        by_name = {r["name"]: r for r in result["invocations"]}
        for inv in self.invocations:
            report = self.workdir / f"{inv.name}.json"
            r = by_name[inv.name]
            reasons = workloads.check(inv, r["rc"], r["error"], report, self.expected)
            self.failed += bool(reasons)
            self.failures += [f"{inv.name} (pass {pass_id}, {mode}): {why}"
                              for why in reasons]
            report.unlink(missing_ok=True)
        return result


def rounds(run: Run, modes: tuple[str, ...], seconds: float) -> list[list[dict]]:
    """Rounds of passes, started while the next round is expected to end
    within the time budget; at least one round."""
    out = []
    start = time.perf_counter()
    longest = 0.0
    while not out or time.perf_counter() - start + longest <= seconds:
        t = time.perf_counter()
        out.append([run.gated_pass(mode) for mode in modes])
        longest = max(longest, time.perf_counter() - t)
    return out


def invocation_wall(result: dict) -> float:
    return sum(r["wall_s"] for r in result["invocations"])


def scale(result: dict) -> float:
    """Factor that takes the pass's times to the reference host speed."""
    return REFERENCE_S / result["reference_s"]


def end_to_end(run: Run, seconds: float) -> dict:
    """Medians over untraced passes, with times at the reference speed."""
    passes = [r for r, in rounds(run, ("plain",), seconds) if "crashed" not in r]
    if not passes:
        return dict.fromkeys(END_TO_END)
    walls = [r["setup_s"] + invocation_wall(r) for r in passes]
    scales = [scale(r) for r in passes]
    print(f"{len(passes)} passes; measured wall s: "
          + " ".join(f"{w:.3f}" for w in walls)
          + "; host speed vs reference: " + " ".join(f"{x:.2f}" for x in scales))
    return {"wall_s": statistics.median(w * x for w, x in zip(walls, scales)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            "setup_s": statistics.median(r["setup_s"] * x
                                         for r, x in zip(passes, scales))}


def per_layer(run: Run, seconds: float, spans_out: Path) -> dict:
    """Per-layer metrics as medians over rounds; None where a metric depends
    on a wrapped name that is missing."""
    span_metrics, count_metrics = tracing.span_metrics(), tracing.count_metrics()
    done = [passes for passes in rounds(run, ("plain", "spans", "counts"), seconds)
            if not any("crashed" in r for r in passes)]
    if not done:
        return dict.fromkeys([*span_metrics, *count_metrics, *TRACE_METRICS])
    plain, traced, counted = zip(*done)
    missing = {name for r in traced + counted for name in r["missing"]}
    broken = {m: why for r in counted for m, why in r["broken"].items()}
    run.missing = sorted(missing) + [f"{m} ({why})" for m, why in broken.items()]
    selves = [{name: t * scale(r) for name, t in
               tracing.self_times([tracing.Span(*s) for s in r["spans"]]).items()}
              for r in traced]

    metrics: dict[str, float | None] = {}
    for metric, targets in span_metrics.items():
        name = metric.removesuffix("_s")
        metrics[metric] = (None if missing.intersection(targets) else
                           statistics.median(s.get(name, 0.0) for s in selves))
    for metric, targets in count_metrics.items():
        metrics[metric] = (None if missing.intersection(targets) or metric in broken
                           else statistics.median(r["counts"][metric] for r in counted))
    metrics["trace.overhead_s"] = statistics.median(
        invocation_wall(t) * scale(t) - invocation_wall(p) * scale(p)
        for p, t in zip(plain, traced))
    metrics["trace.unattributed_s"] = statistics.median(
        s.get(tracing.ROOT, 0.0) for s in selves)
    metrics["trace.wall_s"] = statistics.median(invocation_wall(t) * scale(t)
                                                for t in traced)
    spans_out.write_text(json.dumps({"missing": sorted(missing), "broken": broken,
                                     "spans": [t["spans"] for t in traced]}))
    return metrics


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bits", "bits")):
        if metric.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwinds through subprocess.run, which then kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "qhyperplane" / "cli.py").is_file():
        print(f"bench: no qhyperplane package under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(workloads.build(args.workload, args.seed, workdir),
                  workloads.load_expected(), workdir)
        # fills the bytecode cache and proves the package imports at all
        warm = run_pass(-1, "plain", [], workdir)
        if "crashed" in warm:
            print(f"bench: the package does not import: {warm['crashed']}",
                  file=sys.stderr)
            return 2
        if args.trace:
            metrics = per_layer(run, args.seconds,
                                WORK / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in run.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    for name in run.missing:
        print(f"MISSING {name}", file=sys.stderr)
    failed = run.failed
    print(f"workload {args.workload} seed {args.seed}: "
          f"{run.attempted} invocations, {failed} failed "
          f"(failed_ops_ratio {failed / run.attempted:.4f})")
    document = {}
    for name, value in metrics.items():
        unit = unit_of(name)
        print(f"  {name:40s} {'missing' if value is None else value:>14} {unit}")
        document[name] = {"value": value, "unit": unit}
        if value is None:
            document[name]["missing"] = True
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": document}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
