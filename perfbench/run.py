#!/usr/bin/env python3
"""Benchmark for cocritical: four seeded workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): verify-construct, minsearch-n7, percolate-grid,
props-corpus.  Each is a closed loop: one question at a time, from this one
single-threaded process.  `COCRIT_JOBS` is removed from the environment and
`--jobs` is never passed, so no worker process starts.

With --trace 0 the run sets up at least SETUP_REPEATS times and for at least
SETUP_SECONDS (fresh import of the package plus input building), then answers
the whole question set in passes until S seconds are used, at least once.
It reports:

    setup_s      median set-up time
    solve_s      median time of one pass over the question set
    peak_rss_mb  peak resident memory of this process

With --trace 1 it traces one set-up, makes untraced passes for S/2 seconds,
then two traced passes, and reports the per-layer metrics of tracing.py from
the traced set-up and first traced pass.  trace.overhead_s is the median
traced pass time minus the median untraced one.

Every answer is checked.  Exact counts read off the answers (and, traced, the
call counts) must repeat between passes; a difference fails the run.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The environment (nproc, Python, git sha, seed) and every
mismatch go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from tracing import PER_LAYER, Tracer
from workloads import FULL, WORKLOADS, Sizes

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "perfbench" / "work"
# A run sets up at least SETUP_REPEATS times and for at least SETUP_SECONDS.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def fresh_import():
    """Import cocritical from src/ as a new process would, dropping any copy
    already loaded, and return the package with every submodule loaded."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m.split(".")[0] == "cocritical"]:
        del sys.modules[name]
    importlib.import_module("cocritical.cli")
    return importlib.import_module("cocritical")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """Answers, failures and exact counts gathered over the passes of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.deterministic = True
        self.reference_counts: list[dict] | None = None

    def one_pass(self, questions) -> float:
        """Ask every question once; return the summed question time."""
        gc.collect()
        elapsed = 0.0
        counts = []
        for q in questions:
            self.attempted += 1
            start = time.perf_counter()
            try:
                answer = q.ask()
            except Exception as exc:  # a crash fails the question, not the run
                answer = exc
            took = time.perf_counter() - start
            problems, found = _check(q, answer)
            elapsed += took
            for problem in problems:
                print(f"FAIL {q.label}: {problem}", file=sys.stderr)
            self.failed += bool(problems)
            counts.append(found)
            if self.reference_counts is None:
                print(f"question {q.label}: {took:.4f} s {json.dumps(found)}", file=sys.stderr)
        print(f"pass {elapsed:.4f} s", file=sys.stderr)
        if self.reference_counts is None:
            self.reference_counts = counts
        else:
            self.compare("answer counts", self.reference_counts, counts)
        return elapsed

    def passes(self, questions, seconds: float, at_least: int) -> list[float]:
        """Passes until the next one would overrun `seconds`, at least `at_least`."""
        times: list[float] = []
        start = time.perf_counter()
        while len(times) < at_least or time.perf_counter() - start + median(times) < seconds:
            times.append(self.one_pass(questions))
        return times

    def compare(self, what: str, first, again) -> None:
        if first != again:
            self.deterministic = False
            print(f"NOT DETERMINISTIC {what}: {first} then {again}", file=sys.stderr)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": self.failed == 0 and self.deterministic,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        }


def _check(q, answer) -> tuple[list[str], dict]:
    if isinstance(answer, Exception):
        return [f"raised {type(answer).__name__}: {answer}"], {}
    try:
        return q.check(answer)
    except Exception as exc:  # a reshaped answer fails the question, not the run
        return [f"answer unreadable, {type(exc).__name__}: {exc}"], {}


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    os.environ.pop("COCRIT_JOBS", None)
    WORKDIR.mkdir(exist_ok=True)
    run = Run()
    measure = _per_layer if trace else _end_to_end
    with tempfile.TemporaryDirectory(dir=WORKDIR) as files:
        metrics = measure(run, WORKLOADS[name], seed, seconds, sizes, Path(files))
    return run.result(metrics)


def _end_to_end(run: Run, setup, seed: int, seconds: float, sizes: Sizes, files: Path) -> dict:
    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        gc.collect()
        start = time.perf_counter()
        questions = setup(fresh_import(), seed, sizes, files)
        setup_times.append(time.perf_counter() - start)
    solve = run.passes(questions, seconds, at_least=1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": median(setup_times), "solve_s": median(solve), "peak_rss_mb": rss_mb}
    return {m: (values[m], unit) for m, unit in END_TO_END.items()}


def _per_layer(run: Run, setup, seed: int, seconds: float, sizes: Sizes, files: Path) -> dict:
    cc = fresh_import()
    tracer = Tracer()
    tracer.install()
    questions = setup(cc, seed, sizes, files)
    after_setup = tracer.metrics()
    tracer.uninstall()
    untraced = run.passes(questions, seconds / 2, at_least=1)
    tracer.install()
    traced = [run.one_pass(questions)]
    layers = tracer.metrics()
    tracer.reset()
    traced.append(run.one_pass(questions))
    again = tracer.metrics()
    tracer.uninstall()
    counted = [m for m, unit in PER_LAYER.items() if unit == "count"]
    run.compare(
        "per-layer counts",
        {m: layers[m] - after_setup[m] for m in counted},
        {m: again[m] for m in counted},
    )
    layers["trace.overhead_s"] = median(traced) - median(untraced)
    for m in tracer.missing_metrics():
        print(f"missing per-layer metric {m}: its function or report field is gone", file=sys.stderr)
    return {m: (layers[m], unit) for m, unit in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cocritical" / "__init__.py").is_file():
        print(f"error: no cocritical package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }
    print("environment " + json.dumps(env), file=sys.stderr)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
