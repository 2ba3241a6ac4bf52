#!/usr/bin/env python3
"""Per-apply cost of the uniform-grid fractional integral, the cost of
building the dense tables against N, and the cost of the Mittag-Leffler
oracle.

    PYTHONPATH=src python3 scripts/apply_scaling.py

For N = 2^8 .. 2^16 intervals, and for N = 513, 4097, 6000 and 12000,
whose last block and pushes are cut short, this times apply_integral of
order 0.5 (the steps of a marching solve, level by level: history,
push_history of all block starts of one level at once, the top level
first, one batched FFT per level above fractional_ops._DIRECT_PUSH, then
close, one product for all full blocks) on random data and a direct
np.convolve of the same
stencil, and prints a markdown table of the median time per apply together
with the largest deviation between the two, relative to the largest
output, and the bytes the operator holds: stencil, boundary column and
the near-field block and level spectra of its plan. A second table gives,
for N = 2^8 .. 2^12, the median time to build
the weighted table of order 0.5 for singular exponent g = 0.2 on a uniform
grid and the dense table of order 0.5 on a grid of grading 2 (timed on
the first read of the operator's _table, which builds it), each with its
worst relative error on inputs the rule integrates exactly:
t^(-g), whose image is Gamma(1-g)/Gamma(1-g+beta) t^(beta-g), for the
weighted table, and the constant 1, whose image is t^beta/Gamma(1+beta),
for the graded one. The weighted build is timed in two fresh processes,
one with BLAS pinned to one thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS set to 1) and one with those variables unset, so
that the library picks its thread count; the graded build is timed in
this process. For N <= 1024 the table also gives the largest error of the
weighted table's last row beyond column fractional_ops._FAR_CELL, the
cells summed from Toeplitz moments, against a 40-digit mpmath row,
relative to the row's largest entry (mpmath is needed for that column and
the closed forms of the fourth table only).
A third table runs the command line at grading 2 and N = 1024 and 2048:
`--mode verify` on configs/relaxation_half_order.json (solve and the
checks need I^0.5 on the same grid five times) and `--mode solve` on
configs/singular_forcing.json (gamma = 0.3, which needs the weighted
table only). It gives the best wall time of three runs, the tracemalloc
peak of a fourth run, and the number of dense tables that run builds.
A fourth table times E_(alpha,1)(lam t^alpha) on the 4097 nodes of a uniform
grid of [0, 1], for alpha = 0.5, 1, 2 and lam = -3, -10, three ways: a
per-node loop over a pure-Python scalar series (the evaluation the ml:
oracle used before mittag_leffler took arrays), a per-node loop of
mittag_leffler calls (both timed once), and one mittag_leffler call on the
whole array (median). A column says whether the array call gives
every node bit for bit what the per-node calls give, and the last one
gives its largest error relative to the closed form at each node:
erfcx(-z), exp(z) and cos(sqrt(-z)) in 30-digit mpmath.
A fifth table solves D^0.5 y = f, y(0) = 1, at tol 1e-10: f = -y for T = 1,
5, 20 and 50 and N = 1024 .. 16384, then, at T = 1 and N = 4096, f = -10 y,
whose constant slope takes the exact step from one Toeplitz inverse, and
f = -(5 + 5t) y, whose varying slope solves each window's own system. It
gives the median wall time of solve, the number of windows it marched, how
many of them the exact step finished, the most iterations one window took,
the updates of all windows (steps), and the sup error against the closed
form y = exp(lam^2 t) erfc(lam sqrt(t)) of f = -lam y (none for the last).
A sixth table times one history push of a marching solve at N = 8192 for
the levels h = 64 .. 1024, both ways: the FFT product of the level's
spectrum rfft(s[:2h], 2h), computed here, and the direct sum
np.convolve(s[1:2h], u, "valid"), with their largest difference relative
to the largest output. push_history sums the levels up to
fractional_ops._DIRECT_PUSH directly, and the operator's plan holds the
spectra of the levels above it only.
"""

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np
from numpy.fft import irfft, rfft

from fracpicard import (
    Grid,
    MLParams,
    SampledFunction,
    apply_integral,
    build_integral_operator,
    integral_node_values,
    mittag_leffler,
    problem_from_dict,
    solve,
)
from fracpicard import cli, fractional_ops

ORDER = 0.5
WEIGHT = 0.2  # singular exponent of the weighted table
BUDGET = 0.5  # seconds spent timing each N and method
ORACLE_NODES = 4097
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def direct(op, u):
    n = op.grid.n_intervals
    out = np.zeros(n + 1)
    out[1:] = np.convolve(op._stencil, u[1:])[:n] + op._boundary[1:] * u[0]
    return out


def held_bytes(op) -> int:
    """Bytes of the arrays a uniform operator keeps for its applies."""
    block, spectra = op._plan
    return sum(a.nbytes for a in (op._stencil, op._boundary, block, *spectra))


def scalar_series(alpha: float, z: float, tol: float = 1e-14) -> float:
    """E_(alpha,1)(z) summed term by term in Python floats, with the
    stopping rule of mittag_leffler."""
    total, prev = 0.0, math.inf
    for k in range(2000):
        if z == 0.0:
            term = 1.0 if k == 0 else 0.0
        else:
            term = math.exp(k * math.log(abs(z)) - math.lgamma(alpha * k + 1.0))
            if z < 0.0 and k % 2 == 1:
                term = -term
        total += term
        if abs(term) < tol and abs(term) <= prev:
            return total
        prev = abs(term)
    raise ArithmeticError(f"no convergence at z = {z}")


def once(fn):
    """(result, wall time) of one call."""
    t0 = perf_counter()
    out = fn()
    return out, perf_counter() - t0


def median_time(fn) -> float:
    """Median wall time of fn over at least three calls and about BUDGET seconds."""
    times = []
    start = perf_counter()
    while len(times) < 3 or perf_counter() - start < BUDGET:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def weighted_build_times(ns) -> list:
    """Median ms to build the weighted table at each N, on a fresh grid
    each time (dense tables are kept on the grid)."""
    return [1e3 * median_time(lambda: build_integral_operator(ORDER, Grid.uniform(1.0, n))
                              ._dense_table(WEIGHT)) for n in ns]


def weighted_build_times_in_child(ns, pinned: bool) -> list:
    """weighted_build_times in a fresh process, whose BLAS runs one thread
    (pinned) or as many as the library picks (the variables unset)."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    if pinned:
        env.update(dict.fromkeys(BLAS_THREADS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent), str(Path(fractional_ops.__file__).parents[1])])
    code = f"import apply_scaling, json; print(json.dumps(apply_scaling.weighted_build_times({list(ns)})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def far_row_error(n: int) -> float:
    """Largest error of row N of the weighted table beyond column
    _FAR_CELL against 40-digit mpmath on the nodes j / N, relative to the
    row's largest entry. Each cell's J0 = B_x(p, beta) over the cell comes
    from mp.betainc, p = 1 - g, and S = J1 - t_j J0 from B_x(p+1, beta) =
    (p B_x(p, beta) - x^p (1-x)^beta) / (p+beta) (DLMF 8.17.20). The table
    carries t_j^g = x_j^g in column j, so the reference does too."""
    import mpmath as mp

    with mp.workdps(40):
        beta, g, h = mp.mpf(ORDER), mp.mpf(WEIGHT), mp.mpf(1) / n
        p = 1 - g
        x = [mp.mpf(j) / n for j in range(n + 1)]
        f = [v**p * (1 - v) ** beta for v in x]
        row = [mp.mpf(0)] * (n + 1)
        for j in range(n):
            db = mp.betainc(p, beta, x[j], x[j + 1])
            s = ((p / (p + beta) - x[j]) * db - (f[j + 1] - f[j]) / (p + beta)) / h
            row[j] += db - s
            row[j + 1] += s
        exact = np.array([float(v * x[j] ** g / mp.gamma(beta)) for j, v in enumerate(row)])
    got = build_integral_operator(ORDER, Grid.uniform(1.0, n))._dense_table(WEIGHT)[-1]
    far = slice(fractional_ops._FAR_CELL + 1, None)
    return float(np.max(np.abs(got[far] - exact[far])) / np.max(np.abs(exact)))


def closed_form(alpha: float, z: np.ndarray) -> np.ndarray:
    """E_alpha(z) for alpha = 1/2, 1 and 2 and z <= 0 in 30-digit mpmath:
    exp(z^2) erfc(-z), exp(z) and cos(sqrt(-z))."""
    import mpmath as mp

    forms = {0.5: lambda v: mp.exp(v * v) * mp.erfc(-v), 1.0: mp.exp,
             2.0: lambda v: mp.cos(mp.sqrt(-v))}
    with mp.workdps(30):
        return np.array([float(forms[alpha](mp.mpf(v))) for v in z])


def graded_run(config: str, mode: str, n: int) -> tuple:
    """(best wall time of three runs, tracemalloc peak in bytes, dense
    table builds) of one run of configs/<config>.json at grading 2 from the
    command line. Every dense table build makes exactly one _fill_lower
    call, which is counted."""
    with tempfile.TemporaryDirectory() as out_dir:
        argv = ["--config", str(CONFIGS / f"{config}.json"), "--mode", mode, "--grading", "2",
                "--n-points", str(n), "--output", str(Path(out_dir) / "out.csv")]

        def run():
            with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cli.main(argv)

        wall = min(once(run)[1] for _ in range(3))
        fill, builds = fractional_ops._fill_lower, []

        def counting(table, *args):
            builds.append(table.shape)
            fill(table, *args)

        fractional_ops._fill_lower = counting
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            fractional_ops._fill_lower = fill
    return wall, peak, len(builds)


def main() -> int:
    rng = np.random.default_rng(0)
    print("| N | apply | np.convolve | speed-up | deviation | bytes held |")
    print("|---|---|---|---|---|---|")
    for n in sorted([2**k for k in range(8, 17)] + [513, 4097, 6000, 12000]):
        grid = Grid.uniform(1.0, n)
        op = build_integral_operator(ORDER, grid)
        f = SampledFunction(grid, rng.normal(size=n + 1))
        fast = apply_integral(op, f).values
        ref = direct(op, f.values)
        dev = np.max(np.abs(fast - ref)) / np.max(np.abs(ref))
        t_fast = median_time(lambda: apply_integral(op, f))
        t_ref = median_time(lambda: direct(op, f.values))
        print(f"| {n} | {t_fast * 1e3:.3g} ms | {t_ref * 1e3:.3g} ms "
              f"| {t_ref / t_fast:.1f}x | {dev:.1e} | {held_bytes(op)} |")

    print()
    print("| N | weighted table | unpinned BLAS | exactness | far-field error "
          "| graded table | exactness |")
    print("|---|---|---|---|---|---|---|")
    sizes = [2**k for k in range(8, 13)]
    pinned = weighted_build_times_in_child(sizes, pinned=True)
    unpinned = weighted_build_times_in_child(sizes, pinned=False)
    for n, t_weighted, t_unpinned in zip(sizes, pinned, unpinned):
        t_graded = median_time(lambda: build_integral_operator(ORDER, Grid(1.0, n, 2.0))._table)
        grid = Grid.uniform(1.0, n)
        f = SampledFunction.from_callable(grid, lambda t: t**-WEIGHT, singular_exponent=WEIGHT)
        exact = (math.gamma(1.0 - WEIGHT) / math.gamma(1.0 - WEIGHT + ORDER)
                 * grid.nodes[1:] ** (ORDER - WEIGHT))
        got = integral_node_values(build_integral_operator(ORDER, grid), f)
        err_weighted = np.max(np.abs(got - exact) / exact)
        grid = Grid(1.0, n, 2.0)
        exact = grid.nodes[1:] ** ORDER / math.gamma(1.0 + ORDER)
        got = integral_node_values(build_integral_operator(ORDER, grid),
                                   SampledFunction(grid, np.ones(n + 1)))
        err_graded = np.max(np.abs(got - exact) / exact)
        far = f"{far_row_error(n):.1e}" if n <= 1024 else "-"
        print(f"| {n} | {t_weighted:.3g} ms | {t_unpinned:.3g} ms | {err_weighted:.1e} | {far} "
              f"| {t_graded * 1e3:.3g} ms | {err_graded:.1e} |")

    print()
    print("| graded run | N | wall time | tracemalloc peak | dense builds |")
    print("|---|---|---|---|---|")
    for config, mode in (("relaxation_half_order", "verify"), ("singular_forcing", "solve")):
        for n in (1024, 2048):
            wall, peak, builds = graded_run(config, mode, n)
            print(f"| {mode} `{config}` | {n} | {wall:.3g} s | {peak / 2**20:.3g} MB | {builds} |")

    print()
    print("| alpha | lam | scalar series per node | mittag_leffler per node "
          "| array call | speed-up | same per node | error |")
    print("|---|---|---|---|---|---|---|---|")
    t = np.linspace(0.0, 1.0, ORACLE_NODES)
    for alpha in (0.5, 1.0, 2.0):
        params = MLParams(alpha, 1.0)
        for lam in (-3.0, -10.0):
            z = lam * t**alpha
            _, t_series = once(lambda: [scalar_series(alpha, zi) for zi in z])
            per_node, t_calls = once(lambda: [mittag_leffler(params, zi) for zi in z])
            t_array = median_time(lambda: mittag_leffler(params, z))
            got = mittag_leffler(params, z)
            same = np.array_equal(got, per_node)
            exact = closed_form(alpha, z)
            err = np.max(np.abs(got - exact) / np.abs(exact))
            print(f"| {alpha:g} | {lam:g} | {t_series * 1e3:.0f} ms | {t_calls * 1e3:.0f} ms "
                  f"| {t_array * 1e3:.3g} ms | {t_series / t_array:.0f}x | {'yes' if same else 'no'} "
                  f"| {err:.1e} |")

    print()
    print("| f | T | N | solve | windows | exact | most iterations | steps | sup error |")
    print("|---|---|---|---|---|---|---|---|---|")
    rows = [("-z1", 1.0, horizon, n) for horizon in (1.0, 5.0, 20.0, 50.0)
            for n in (1024, 2048, 4096, 8192, 16384)]
    rows += [("-10*z1", 10.0, 1.0, 4096), ("-(5+5*t)*z1", None, 1.0, 4096)]
    for rhs, lam, horizon, n in rows:
        problem = problem_from_dict({"alpha": 0.5, "derivative_orders": [0.0],
                                     "initial_values": [1.0], "horizon": horizon, "rhs": rhs})
        grid = Grid.uniform(horizon, n)
        traj = solve(problem, grid)
        wall = median_time(lambda: solve(problem, grid))
        error = "-"
        if lam is not None:
            exact = [math.exp(lam * lam * t) * math.erfc(lam * math.sqrt(t)) for t in grid.nodes]
            error = f"{np.max(np.abs(traj.y.values - exact)):.3e}"
        report = traj.report
        status = "" if report.converged else " (not converged)"
        print(f"| {rhs} | {horizon:g} | {n} | {wall * 1e3:.3g} ms | {report.windows} "
              f"| {report.exact_windows} | {report.iterations}{status} | {report.steps} "
              f"| {error} |")

    print()
    print("| h | FFT push | direct push | deviation |")
    print("|---|---|---|---|")
    op = build_integral_operator(ORDER, Grid.uniform(1.0, 8192))
    for h in (64, 128, 256, 512, 1024):
        spectrum = rfft(op._stencil[: 2 * h], 2 * h)
        u, s = rng.normal(size=h), op._stencil[1 : 2 * h]
        fft = irfft(rfft(u, 2 * h) * spectrum, 2 * h)[h:]
        dev = np.max(np.abs(np.convolve(s, u, "valid") - fft)) / np.max(np.abs(fft))
        t_fft = median_time(lambda: irfft(rfft(u, 2 * h) * spectrum, 2 * h)[h:])
        t_direct = median_time(lambda: np.convolve(s, u, "valid"))
        print(f"| {h} | {t_fft * 1e6:.3g} us | {t_direct * 1e6:.3g} us | {dev:.1e} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
