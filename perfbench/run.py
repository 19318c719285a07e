"""nwacal benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 10 --trace 0

Each invocation of the program is ``nwacal.cli.main(argv)`` in a fresh
interpreter (``child.py``), repeated until ``--seconds`` have passed. With
``--trace 0`` the last line of stdout holds the end-to-end metrics (medians
over the invocations); with ``--trace 1`` it holds the per-layer metrics of
single-worker traced invocations, alternated with untraced ones to measure
the tracing overhead. Every output is checked; a wrong answer makes the
result ``"correct": false`` and the exit code 1. See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One BLAS thread per process: pool workers must not oversubscribe the cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_INVOCATIONS = 3
# A run must end within 180 s: at most MAX_SECONDS of measuring, plus input
# generation, checks and the invocation that is running when time is up.
MAX_SECONDS = 120
CHILD_TIMEOUT_S = 150
RUN_DEADLINE_S = 170


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _provenance(loadavg: tuple) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "loadavg_at_start": loadavg,
        "git_commit": _git_commit(),
    }


def digest(out: Path) -> tuple[str, int]:
    """sha256 over every output file (name and bytes), and the bytes written."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        size += len(data)
        h.update(p.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


class Runner:
    """Runs child invocations of one prepared workload and checks their outputs."""

    def __init__(self, prep, work: Path, deadline: float):
        self.prep = prep
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failed_invocations = 0
        self.errors: list[str] = []
        self.reference: tuple[str, int] | None = None
        self.fits: tuple[int, int] | None = None
        self.missing: set[str] = set()

    def warm_up(self) -> None:
        """Compile and page in nwacal once so the first set-up is not an outlier."""
        subprocess.run([sys.executable, "-c", "import nwacal.cli"], env=self.env, cwd=ROOT,
                       check=True, timeout=CHILD_TIMEOUT_S)

    def invoke(self, threads: int, trace: bool) -> dict | None:
        """One child invocation; None (and an error) when it failed or its
        outputs are wrong."""
        self.attempted += 1
        res = self._invoke(threads, trace)
        self.failed_invocations += res is None
        return res

    def _invoke(self, threads: int, trace: bool) -> dict | None:
        k = self.attempted
        out = self.work / f"out{k}"
        spec = self.work / f"spec{k}.json"
        result = self.work / f"result{k}.json"
        spec.write_text(json.dumps({
            "argv": self.prep.argv(out, threads),
            "cells": [dataclasses.asdict(c) for c in self.prep.cells],
            "trace": trace,
        }))
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec), str(result)],
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"invocation {k} timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            self.errors.append(f"invocation {k} crashed: {proc.stderr.strip()[-2000:]}")
            return None
        res = json.loads(result.read_text())
        if res["rc"] != 0:
            self.errors.append(f"nwacal exited {res['rc']}: {proc.stderr.strip()[-2000:]}")
            return None
        new = set(res["missing"]) - self.missing
        if new:
            self.missing |= new
            print(f"note: names no longer in nwacal, recorded as 0 calls: {sorted(new)}", file=sys.stderr)
        found = digest(out)
        if self.reference is None:
            try:
                errs = self.prep.check(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errs = [f"malformed output: {exc!r}"]
            self.errors += errs
            if errs:
                return None
            self.reference = found
            self.fits = self.prep.fit_counts(out)
        elif found != self.reference:
            self.errors.append(f"invocation {k} (threads={threads}, trace={trace}) outputs differ from the first")
            return None
        shutil.rmtree(out)
        res["bytes_written"] = found[1]
        return res

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure(runner: Runner, threads: int, seconds: float) -> dict:
    """End-to-end metrics over untraced invocations on ``threads`` workers."""
    if threads > 1:
        # Reference for byte-identity: the same inputs on one worker.
        runner.invoke(1, trace=False)
    results = []
    start = time.monotonic()
    while not runner.failed and (len(results) < MIN_INVOCATIONS or time.monotonic() - start < seconds):
        res = runner.invoke(threads, trace=False)
        if res is not None:
            results.append(res)
    if not results:
        return {}
    reps = runner.prep.replicates
    per_rep = [r["run_study_s"] / reps * 1e6 if runner.prep.cells else r["wall_s"] * 1e6 for r in results]
    return {
        "setup_s": (_median(results, "setup_s"), "s"),
        "wall_s": (_median(results, "wall_s"), "s"),
        "us_per_replicate": (statistics.median(per_rep), "us"),
        "peak_rss_mb": (_median(results, "peak_rss_mb"), "MB"),
    }


def trace(runner: Runner, threads: int, seconds: float) -> dict:
    """Per-layer metrics: traced single-worker invocations alternated with
    untraced ones (and, for the parallel workload, untraced pool runs)."""
    par = threads > 1
    traced, single, pooled = [], [], []
    start = time.monotonic()
    while not runner.failed and (len(traced) < 2 or time.monotonic() - start < seconds):
        for bucket, workers, tr in ((pooled, threads, False), (single, 1, False), (traced, 1, True)):
            if bucket is pooled and not par:
                continue
            res = runner.invoke(workers, trace=tr)
            if res is None:
                break
            if tr:
                runner.errors += layers.check_self_time_sum(res["spans"])
                res["layers"] = layers.per_layer_metrics(res["spans"])
                del res["spans"]
            bucket.append(res)
    if runner.failed or not traced:
        return {}

    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if layers.unit_of(name) != "count":
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) != 1:
            runner.errors.append(f"count {name} differs between traced runs: {values}")
        metrics[name] = values[0]
    t_single = _median(single, "run_study_s")
    if par and t_single > 0:
        t_pool = _median(pooled, "run_study_s")
        metrics["montecarlo.pool_overhead_s"] = t_pool - t_single / threads
        metrics["montecarlo.parallel_efficiency"] = t_single / (threads * t_pool)
    else:
        metrics["montecarlo.pool_overhead_s"] = 0.0
        metrics["montecarlo.parallel_efficiency"] = 0.0
    metrics["montecarlo.replicates"] = runner.prep.replicates if runner.prep.cells else 0
    metrics["cli.bytes_written"] = traced[0]["bytes_written"]
    attempted, failed = runner.fits
    metrics["fits_attempted"] = attempted
    metrics["fits_failed"] = failed
    metrics["fit_failure_rate"] = failed / attempted
    metrics["trace_overhead"] = _median(traced, "wall_s") / _median(single, "wall_s") - 1.0
    return {name: (value, layers.unit_of(name)) for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must fit in an unsigned 64-bit integer and --seconds lie in (0, {MAX_SECONDS}]")

    if not (SRC / "nwacal" / "cli.py").is_file():
        print(f"error: no nwacal sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    threads = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        prep = workloads.prepare(args.workload, args.seed, work)
        runner = Runner(prep, work, deadline)
        runner.warm_up()
        if args.trace:
            metrics = trace(runner, threads, args.seconds)
        else:
            metrics = measure(runner, threads, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in runner.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print("provenance " + json.dumps(_provenance(loadavg)))
    print(json.dumps({
        "correct": not runner.failed,
        "attempted": runner.attempted,
        "failed": runner.failed_invocations,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
