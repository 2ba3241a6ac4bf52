#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of fracpicard.

    python3 bench/run.py --workload uniform_relax --seed 1 --seconds 16 --trace 0

Run from the root of a checkout: the package is imported from src/. One
client runs operations back to back (a closed loop), in whole passes over a
problem set generated from --seed: at least two, and until --seconds have
gone by. Every operation is checked against the closed form the
problem was manufactured from.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced operations on the same problems and prints the per-layer metrics.
The last line of standard output is one JSON object. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
import warnings
from pathlib import Path
from time import perf_counter

# One BLAS thread: on two CPUs a second OpenBLAS thread made the 25
# table-vector products of one N = 1024 solve ~20x slower, which measures
# the scheduler. The weighted applies of singular_verify are such products.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FRACPICARD_THREADS": "2",
}
os.environ.update(PINNED)  # before numpy loads its BLAS

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, patched  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5   # fresh processes timed for setup_s before and again after the loop
PEAK_CASES = 1     # problems run under tracemalloc for peak_mem_mb
# one study pass takes longer than --seconds, and the median of a single
# pass over its twenty problems is noisy
MIN_PASSES = 2
DIGITS_CAP = 16.0  # correct digits of an exact result (float64 resolution)

END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "accuracy_digits": "digits",
}
PER_LAYER = {**layers.UNITS, "bench.trace_overhead": "ratio", "bench.self_sum_ratio": "ratio"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test-corrupt", action="store_true",
                    help="scale the first operation's result by 1.1; it must count as failed")
    ap.add_argument("--tiny", action="store_true",
                    help="small grids and problem sets, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--pass-worker", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def set_up(args):
    """Import fracpicard, then generate, write and validate the problem set."""
    sys.path.insert(0, str(SRC))
    import fracpicard
    import fracpicard.cli  # noqa: F401  (the CLI is not imported by the package)

    # the generated problems do not meet the a priori contraction bound;
    # the warning says nothing the convergence check does not
    warnings.simplefilter("ignore", fracpicard.ContractionWarning)
    w = workloads.sized(workloads.WORKLOADS[args.workload], args.tiny)
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        cases = workloads.make_cases(w, args.seed, work, fracpicard)
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise
    return fracpicard, w, cases, work


def child(args, *flags) -> str:
    """Run this script in a fresh process on the same workload and seed;
    returns the last line it prints."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *flags,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return done.stdout.splitlines()[-1]


def setup_seconds(args) -> list:
    """Times from starting a fresh process until its first operation could
    begin, for SETUP_PROBES processes run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()  # CLOCK_MONOTONIC: comparable across processes
        times.append(float(child(args, "--setup-probe")) - t0)
    return times


class Runner:
    """Runs one operation of the workload and checks its result."""

    def __init__(self, fp, w, work: str) -> None:
        self.fp, self.w = fp, w
        self.out = os.path.join(work, "out.csv")
        self.errors = 0

    def run(self, case):
        """One operation: a library solve, or cli.main in verify or study
        mode. Returns (exit status, trajectory on the finest grid)."""
        if self.w.mode == "solve":
            tr = self.fp.picard_solver.solve(case.problem, case.grid)
            return (0 if tr.report.converged else 2), tr
        cli = self.fp.cli
        solve, caught = cli.solve, []

        def keep(*a, **kw):
            tr = solve(*a, **kw)
            caught.append(tr)
            return tr

        with patched([(cli, "solve", keep)]):
            rc = cli.main(workloads.cli_argv(self.w, case, self.out))
        return rc, max(caught, key=lambda t: t.grid.n_intervals, default=None)

    def timed(self, case):
        """(seconds, exit status, trajectory); an exception is a failed run."""
        t0 = perf_counter()
        try:
            rc, traj = self.run(case)
        except Exception:
            rc, traj = -1, None
            if self.errors == 0:
                traceback.print_exc()
            self.errors += 1
        return perf_counter() - t0, rc, traj

    def check(self, case, rc, traj, corrupt=False):
        """(failed, silently wrong, correct digits or None).

        An operation fails when it exits nonzero, does not converge or
        misses the workload's accuracy bound. It is silently wrong when
        the package reported success and the result is wrong anyway."""
        if rc != 0 or traj is None:
            return True, False, None
        y = traj.y.values * (1.1 if corrupt else 1.0)
        d = min(max(workloads.digits(y, case.y_ref), 0.0), DIGITS_CAP)
        wrong = d < self.w.min_digits
        if self.w.mode == "study":
            # the study's finest-grid error is measured against the CLI
            # oracle; more than twice the true error means the oracle is
            # off by more than that error
            with open(self.out, encoding="utf-8") as fh:
                reported = float(fh.read().splitlines()[-1].split(",")[1])
            true = float(abs(y - case.y_ref).max())
            wrong = wrong or reported > 2.0 * true
        return wrong, wrong, d


def peak_mb(runner, cases) -> float:
    """Largest tracemalloc peak of one operation over the first PEAK_CASES
    problems, with the study pool on one thread so the peak repeats."""
    saved = os.environ["FRACPICARD_THREADS"]
    os.environ["FRACPICARD_THREADS"] = "1"
    tracemalloc.start()
    try:
        peak = 0
        for case in cases[:PEAK_CASES]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            runner.timed(case)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
        os.environ["FRACPICARD_THREADS"] = saved
    return peak / 1e6


def tail(durations: list):
    """Value at the highest percentile with at least ten samples beyond it,
    never below the median; returns (value, percentile, samples)."""
    s = sorted(durations)
    n = len(s)
    k = max(n - 10, n // 2 + 1)
    return s[k - 1], math.floor(100.0 * k / n), n


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = self.silent = 0
        self.digits = []
        self.counts_repeat = True

    def add(self, verdict) -> None:
        failed, silent, d = verdict
        self.attempted += 1
        self.failed += failed
        self.silent += silent
        if d is not None:
            self.digits.append(d)


def loop(args, run_pass) -> None:
    """Closed loop: whole passes over the problem set, so every run weighs
    each problem the same, at least MIN_PASSES of them and until
    args.seconds have gone by. run_pass(n) runs pass n."""
    start = perf_counter()
    n = 0
    while n < MIN_PASSES or perf_counter() - start < args.seconds:
        run_pass(n)
        n += 1


def one_pass(args) -> list:
    """One pass over the problem set in this process, after one untimed
    warm-up operation: [seconds, failed, silently wrong, digits] per
    operation."""
    fp, w, cases, work = set_up(args)
    try:
        runner = Runner(fp, w, work)
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            runner.timed(cases[0])
            ops = []
            for i, case in enumerate(cases):
                dt, rc, traj = runner.timed(case)
                ops.append([dt, *runner.check(case, rc, traj, args.self_test_corrupt and i == 0)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return ops


def end_to_end(args, runner, cases, tally):
    """Every pass runs in a fresh process: on a shared 2-CPU VM the speed
    of a process moved with the load on the host, by up to a third, so
    several processes per run steady the medians."""
    peak = peak_mb(runner, cases)
    durations = []

    def run_pass(n):
        flags = ["--pass-worker"] + (["--self-test-corrupt"] if args.self_test_corrupt and n == 0 else [])
        for dt, *verdict in json.loads(child(args, *flags)):
            durations.append(dt)
            tally.add(verdict)

    loop(args, run_pass)
    value, pct, n = tail(durations)
    metrics = {
        "op_p50_s": statistics.median(durations),
        "op_tail_s": value,
        "ops_per_s": len(durations) / sum(durations),
        "peak_mem_mb": peak,
        "accuracy_digits": min(tally.digits, default=0.0),
    }
    return metrics, {"op_tail_s": f"p{pct} of {n} samples"}


def per_layer(args, runner, cases, fp, tally):
    tracer = Tracer()
    hooks = layers.instrumentation(tracer, fp)
    threads = int(os.environ["FRACPICARD_THREADS"])
    plain, traced, per_op, counts = [], [], [], {}
    runner.timed(cases[0])  # warm-up, as the peak pass is for --trace 0

    def step(n, i, case):
        dt, rc, traj = runner.timed(case)
        plain.append(dt)
        tally.add(runner.check(case, rc, traj, args.self_test_corrupt and n == i == 0))
        tracer.spans = []
        with patched(hooks), tracer.span("bench.op") as root:
            _, rc, traj = runner.timed(case)
        traced.append(root.duration)
        tally.add(runner.check(case, rc, traj))
        m = layers.reduce_op(tracer.spans, root, threads)
        per_op.append(m)
        key = tuple(m[name] for name in layers.EXACT_COUNTS)
        if counts.setdefault(i, key) != key:
            tally.counts_repeat = False
            print(f"counts did not repeat on problem {i}: {key} != {counts[i]}", file=sys.stderr)

    def run_pass(n):
        for i, case in enumerate(cases):
            step(n, i, case)

    loop(args, run_pass)
    metrics = layers.medians(per_op)
    p50 = statistics.median(traced)
    metrics["bench.trace_overhead"] = p50 / statistics.median(plain) - 1.0
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS + ("bench",))
    metrics["bench.self_sum_ratio"] = self_sum / p50
    return metrics, {"bench.op_p50_traced_s": f"{p50:.6g} s"}


def environment() -> dict:
    return {
        **PINNED,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracpicard" / "__init__.py").is_file():
        print(f"error: no fracpicard sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, _, _, work = set_up(args)
        print(perf_counter())
        shutil.rmtree(work, ignore_errors=True)
        return 0
    if args.pass_worker:
        print(json.dumps(one_pass(args)))
        return 0

    # probes before and after the loop, so setup_s spans the whole run
    setup = [] if args.trace else setup_seconds(args)
    fp, w, cases, work = set_up(args)
    tally = Tally()
    try:
        runner = Runner(fp, w, work)
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            if args.trace:
                metrics, notes = per_layer(args, runner, cases, fp, tally)
                unit_of = PER_LAYER
            else:
                metrics, notes = end_to_end(args, runner, cases, tally)
                unit_of = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup + setup_seconds(args))

    print("env: " + json.dumps(environment()))
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"attempted {tally.attempted}, failed {tally.failed}")
    if not args.trace:
        print(f"  {'failed_ratio':<50} {tally.failed / tally.attempted:.6g} ratio")
    for name in unit_of:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<50} {metrics[name]:.6g} {unit_of[name]}{note}")
    for name, note in notes.items():
        if name not in unit_of:
            print(f"  {name:<50} {note}")
    result = {
        "correct": tally.silent == 0 and tally.counts_repeat,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]} for name in unit_of},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
