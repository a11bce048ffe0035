"""One benchmark pass: a fresh single-threaded process that runs a list of
CLI invocations in-process through qhyperplane.cli.main.

Reads the plan as JSON on stdin:
    {"pass_id": 3, "mode": "plain" | "spans" | "counts", "src": "<dir>",
     "invocations": [{"name": "...", "argv": ["verify", ...]}, ...]}
and writes one JSON object on stdout.  The invocations' own output is
captured and discarded; their reports go to the --out files in their argv.

Only the "spans" and "counts" modes import the tracing module and install
wrappers; a "plain" pass runs the package untouched.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path


SAMPLE_INTERVAL_S = 0.05


def reference_work() -> None:
    """A fixed computation of about a millisecond, standard library only.

    It mixes the kinds of work the package does (Fraction arithmetic, big
    integers, tuple-keyed dicts) and never calls the package, so its time
    tracks how fast this host runs Python at that moment and no change to
    the package can move it.
    """
    total, table = Fraction(0), {}
    for i in range(1, 120):
        total += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
        key = (i % 31, i % 17, i % 13)
        table[key] = table.get(key, 0) + i * 2305843009213693951 % 1000003


class SpeedSampler:
    """Times reference_work() every SAMPLE_INTERVAL_S of wall time while the
    invocations run, from a SIGALRM handler in the same thread."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_invocation(cli, inv: dict, index: int, tracer, counter) -> dict:
    """Call cli.main once; a raising invocation is recorded, not propagated."""
    if counter is not None:
        counter.invocation = index
    if tracer is not None:
        tracer.enter_root()
    rc, error = None, None
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(list(inv["argv"]))
    except SystemExit as e:
        rc = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
    except Exception:
        error = traceback.format_exc(limit=-3)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.exit()
    return {"name": inv["name"], "rc": rc, "error": error, "wall_s": wall}


def run_pass(plan: dict) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, plan["src"])
    from qhyperplane import cli
    for inv in plan["invocations"]:
        # an invocation whose set-up fails is left to fail when it runs
        with contextlib.suppress(Exception, SystemExit), \
                contextlib.redirect_stderr(io.StringIO()):
            config = cli.build_config(cli.build_parser().parse_args(inv["argv"]))
            config.build_sigma(config.build_spec())
    setup_s = time.perf_counter() - t0

    mode = plan["mode"]
    tracer = counter = patches = None
    if mode != "plain":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing
        patches = tracing.Patches()
        if mode == "spans":
            tracer = tracing.Tracer(plan["pass_id"])
            tracer.install(patches)
        else:
            counter = tracing.Counter()
            counter.install(patches)

    results = []
    with SpeedSampler() as sampler:
        for index, inv in enumerate(plan["invocations"]):
            results.append(run_invocation(cli, inv, index, tracer, counter))
    sampler.sample()    # at least one sample, however short the pass

    out = {"pass_id": plan["pass_id"], "mode": mode, "setup_s": setup_s,
           "reference_s": sum(sampler.samples) / len(sampler.samples),
           "invocations": results}
    if patches is not None:
        patches.undo()
        out["missing"] = patches.missing
    if tracer is not None:
        out["spans"] = [[s.name, s.start, s.end, s.parent, s.pass_id]
                        for s in tracer.spans]
    if counter is not None:
        out["counts"] = counter.totals()
        out["broken"] = counter.broken
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main() -> int:
    result = run_pass(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
