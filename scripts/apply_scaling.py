#!/usr/bin/env python3
"""Per-apply cost of the uniform-grid fractional integral, and the cost
of building the dense tables, against N.

    PYTHONPATH=src python3 scripts/apply_scaling.py

For N = 2^8 .. 2^16 intervals this times apply_integral of order 0.5 (the
blocked FFT history sum) on random data and a direct np.convolve of the
same stencil, and prints a markdown table of the median time per apply
together with the largest deviation between the two, relative to the
largest output. A second table gives, for N = 2^8 .. 2^11, the median time
to build the weighted table of order 0.5 for singular exponent 0.2 on a
uniform grid and the dense table of order 0.5 on a grid of grading 2.
"""

import statistics
from time import perf_counter

import numpy as np

from fracpicard import Grid, SampledFunction, apply_integral, build_integral_operator

ORDER = 0.5
WEIGHT = 0.2  # singular exponent of the weighted table
BUDGET = 0.5  # seconds spent timing each N and method


def direct(op, u):
    n = op.grid.n_intervals
    out = np.zeros(n + 1)
    out[1:] = np.convolve(op._stencil, u[1:])[:n] + op._boundary[1:] * u[0]
    return out


def median_time(fn) -> float:
    """Median wall time of fn over at least three calls and about BUDGET seconds."""
    times = []
    start = perf_counter()
    while len(times) < 3 or perf_counter() - start < BUDGET:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    rng = np.random.default_rng(0)
    print("| N | apply | np.convolve | speed-up | deviation |")
    print("|---|---|---|---|---|")
    for k in range(8, 17):
        n = 2**k
        grid = Grid.uniform(1.0, n)
        op = build_integral_operator(ORDER, grid)
        f = SampledFunction(grid, rng.normal(size=n + 1))
        fast = apply_integral(op, f).values
        ref = direct(op, f.values)
        dev = np.max(np.abs(fast - ref)) / np.max(np.abs(ref))
        t_fast = median_time(lambda: apply_integral(op, f))
        t_ref = median_time(lambda: direct(op, f.values))
        print(f"| {n} | {t_fast * 1e3:.3g} ms | {t_ref * 1e3:.3g} ms "
              f"| {t_ref / t_fast:.1f}x | {dev:.1e} |")

    print()
    print("| N | weighted table | graded table |")
    print("|---|---|---|")
    for k in range(8, 12):
        n = 2**k
        # a fresh grid each time: the weighted table is kept on the grid
        t_weighted = median_time(
            lambda: build_integral_operator(ORDER, Grid.uniform(1.0, n))._weighted_table(WEIGHT)
        )
        t_graded = median_time(lambda: build_integral_operator(ORDER, Grid.graded(1.0, n, 2.0)))
        print(f"| {n} | {t_weighted * 1e3:.3g} ms | {t_graded * 1e3:.3g} ms |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
