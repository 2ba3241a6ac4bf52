"""Quadrature and derivative tests against independent oracles.

Oracles used here:
- the power rule I^beta t^mu = gamma(mu+1)/gamma(mu+1+beta) t^(mu+beta)
  (math.gamma only),
- mpmath 40-digit per-cell closed forms for the product-trapezoid rule on
  arbitrary node values,
- scipy.special.betainc for the in-house incomplete beta,
- mpmath quadrature for the series branch of the kernel moments,
- classical uniform-grid weight formulas built from second differences of
  (k)^(beta+1) (accurate enough at small N to serve as a cross-check).
"""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from math import gamma
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.fft import rfft

import fracpicard
from fracpicard.cli import main
from fracpicard.fractional_ops import (
    _FAR_CELL,
    _FAR_TERMS,
    FracIntegralOperator,
    Grid,
    NonFiniteIterateError,
    _kernel_moments,
    _matmul,
    _Plan,
    _series_terms,
    _Table,
    SampledFunction,
    apply_integral,
    block_bounds,
    build_integral_operator,
    caputo_derivative,
    ceil_order,
    derivative_taylor_part,
    incomplete_beta,
    integral_node_values,
    is_integer_order,
)

BETAS = (0.3, 0.5, 1.0, 1.7, 2.5)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def power_rule(beta: float, mu: float, t: np.ndarray) -> np.ndarray:
    """I^beta t^mu in closed form."""
    return math.gamma(mu + 1.0) / math.gamma(mu + 1.0 + beta) * t ** (mu + beta)


class TestCeilOrder:
    def test_values(self):
        assert ceil_order(0.5) == 1
        assert ceil_order(1.0) == 1
        assert ceil_order(1.5) == 2
        assert ceil_order(2.0) == 2
        assert ceil_order(2.0 + 1e-12) == 2  # snaps to the integer
        assert ceil_order(2.5) == 3
        assert ceil_order(0.0) == 0  # order 0 needs no initial condition

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            ceil_order(-1.5)
        with pytest.raises(ValueError):
            ceil_order(float("nan"))

    def test_integer_detection(self):
        assert is_integer_order(2.0)
        assert is_integer_order(1.0 + 1e-13)
        assert not is_integer_order(1.5)
        assert not is_integer_order(-1.0)


class TestGrid:
    def test_uniform_nodes(self):
        g = Grid.uniform(2.0, 8)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 2.0
        assert g.n_intervals == 8
        assert g.is_uniform
        assert np.allclose(np.diff(g.nodes), 0.25)

    def test_graded_nodes_cluster_at_origin(self):
        g = Grid(1.0, 16, 3.0)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 1.0
        assert not g.is_uniform
        spacings = np.diff(g.nodes)
        assert np.all(np.diff(spacings) > 0.0)  # widening away from 0
        assert g.nodes[1] == pytest.approx((1.0 / 16.0) ** 3)

    def test_equality_and_hash(self):
        a = Grid.uniform(1.0, 8)
        assert a == Grid(1.0, 8, 1.0) and hash(a) == hash(Grid(1.0, 8, 1.0))
        assert a == Grid(1.0, np.int64(8)) and hash(a) == hash(Grid(1.0, np.int64(8)))
        assert a != Grid.uniform(1.0, 16)
        assert a != Grid(2.0, 8)
        assert a != Grid(1.0, 8, 2.0)
        assert len({a, Grid.uniform(1.0, 8), Grid(1.0, 8, 2.0)}) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2 intervals"):
            Grid(1.0, 1)
        with pytest.raises(ValueError, match="grading"):
            Grid(1.0, 8, 0.5)  # grading < 1
        with pytest.raises(ValueError, match="increasing"):
            Grid(1.0, 256, 300.0)  # t_1 underflows to 0
        with pytest.raises(ValueError, match="horizon"):
            Grid.uniform(-1.0, 8)

    @pytest.mark.parametrize("n", [2.5, 8.0])
    def test_non_integer_interval_count_rejected(self, n):
        with pytest.raises(TypeError, match="n_intervals"):
            Grid.uniform(1.0, n)

    def test_numpy_integer_interval_count_accepted(self):
        assert Grid(1.0, np.int64(8), 2.0).n_intervals == 8

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="horizon"):
                Grid.uniform(horizon, 8)

    @pytest.mark.parametrize("grading", [math.inf, math.nan])
    def test_non_finite_grading_rejected(self, grading):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grading"):
                Grid(1.0, 8, grading)

    @pytest.mark.parametrize("grading", [-1.0, 0.5, math.nan])
    def test_bad_grading_rejected_without_warning(self, grading):
        # checked before the nodes are computed: 0 ** -1 would warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grading"):
                Grid(1.0, 8, grading)

    @pytest.mark.parametrize("horizon,n", [(1.0, 8), (2.0, 512), (0.3, 1000), (7.5, 3)])
    def test_uniform_nodes_bitwise(self, horizon, n):
        expected = horizon * (np.arange(n + 1) / n)
        assert Grid.uniform(horizon, n).nodes.tobytes() == expected.tobytes()

    @given(st.integers(min_value=2, max_value=64), st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=60)
    def test_graded_construction_property(self, n, r):
        g = Grid(1.5, n, r)
        assert g.nodes.size == n + 1
        assert g.horizon == pytest.approx(1.5)
        assert np.all(np.diff(g.nodes) > 0.0)


class TestSampledFunction:
    def test_regular_covers_all_nodes(self):
        g = Grid.uniform(1.0, 4)
        f = SampledFunction(g, np.arange(5.0))
        assert f.values.size == 5
        assert not np.any(np.isnan(f.values))

    def test_singular_skips_origin(self):
        # one sample per node as well, nan at t_0; from_callable must never
        # evaluate fn there
        def fn(t):
            if np.any(t == 0.0):
                raise AssertionError("evaluated at t = 0")
            return t**-0.5

        g = Grid(1.0, 8, 2.0)
        s = SampledFunction.from_callable(g, fn, singular_exponent=0.5)
        assert s.values.size == 9
        assert np.isnan(s.values[0])
        assert np.array_equal(s.values[1:], g.nodes[1:] ** -0.5)

    def test_from_callable(self):
        g = Grid.uniform(1.0, 8)
        f = SampledFunction.from_callable(g, lambda t: t**2)
        assert np.allclose(f.values, g.nodes**2)
        s = SampledFunction.from_callable(g, lambda t: t**-0.25, singular_exponent=0.25)
        assert np.isnan(s.values[0])
        assert np.allclose(s.values[1:], g.nodes[1:] ** -0.25)

    def test_from_callable_broadcasts_scalars(self):
        g = Grid.uniform(1.0, 4)
        f = SampledFunction.from_callable(g, lambda t: 2.0)
        assert np.array_equal(f.values, np.full(5, 2.0))

    def test_length_validation(self):
        g = Grid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            SampledFunction(g, np.arange(4.0))  # one value per node
        with pytest.raises(ValueError):
            SampledFunction(g, np.array([np.nan, 1.0, 2.0, 3.0]), singular_exponent=0.5)
        with pytest.raises(ValueError):
            SampledFunction(g, np.arange(5.0), singular_exponent=0.5)  # needs nan at t_0

    def test_exponent_range(self):
        g = Grid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            SampledFunction(g, np.arange(4.0), singular_exponent=1.0)
        with pytest.raises(ValueError):
            SampledFunction(g, np.arange(4.0), singular_exponent=-0.1)

    def test_arithmetic_requires_same_layout(self):
        g = Grid.uniform(1.0, 4)
        a = SampledFunction(g, np.ones(5))
        b = SampledFunction(g, 2.0 * np.ones(5))
        assert np.allclose((a + b).values, 3.0)
        c = SampledFunction(Grid.uniform(1.0, 8), np.ones(9))
        with pytest.raises(ValueError):
            _ = a + c
        d = SampledFunction(g, np.array([np.nan, 1.0, 1.0, 1.0, 1.0]), singular_exponent=0.5)
        with pytest.raises(ValueError):
            _ = a + d


class TestRegularQuadrature:
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("n", (64, 1024))
    def test_exact_on_constants(self, beta, n):
        grid = Grid.uniform(1.0, n)
        op = build_integral_operator(beta, grid)
        out = apply_integral(op, SampledFunction.from_callable(grid, lambda t: np.ones_like(t)))
        exact = power_rule(beta, 0.0, grid.nodes)
        rel = np.abs(out.values[1:] - exact[1:]) / exact[1:]
        assert np.max(rel) < 1e-13

    @pytest.mark.parametrize("beta", BETAS)
    def test_exact_on_linear(self, beta):
        grid = Grid.uniform(2.0, 512)
        op = build_integral_operator(beta, grid)
        out = apply_integral(op, SampledFunction.from_callable(grid, lambda t: 3.0 * t - 1.0))
        exact = 3.0 * power_rule(beta, 1.0, grid.nodes) - power_rule(beta, 0.0, grid.nodes)
        scale = np.maximum(np.abs(exact[1:]), 1.0)
        assert np.max(np.abs(out.values[1:] - exact[1:]) / scale) < 1e-13

    @pytest.mark.parametrize("beta", BETAS)
    def test_exact_on_constants_graded(self, beta):
        grid = Grid(1.0, 256, 3.0)
        op = build_integral_operator(beta, grid)
        out = apply_integral(op, SampledFunction.from_callable(grid, lambda t: np.ones_like(t)))
        exact = power_rule(beta, 0.0, grid.nodes)
        rel = np.abs(out.values[1:] - exact[1:]) / exact[1:]
        assert np.max(rel) < 1e-13

    def test_order_one_is_composite_trapezoid(self):
        grid = Grid.uniform(1.0, 64)
        op = build_integral_operator(1.0, grid)
        rng = np.random.default_rng(3)
        u = rng.normal(size=65)
        out = apply_integral(op, SampledFunction(grid, u))
        h = 1.0 / 64.0
        expected = np.concatenate(([0.0], np.cumsum(h * (u[1:] + u[:-1]) / 2.0)))
        assert np.allclose(out.values, expected, atol=1e-14)

    def test_converges_on_smooth_function(self):
        # second order on t^2 (not piecewise linear)
        errs = []
        for n in (64, 128, 256):
            grid = Grid.uniform(1.0, n)
            op = build_integral_operator(0.5, grid)
            out = apply_integral(op, SampledFunction.from_callable(grid, lambda t: t**2))
            errs.append(np.max(np.abs(out.values - power_rule(0.5, 2.0, grid.nodes))))
        rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(rate) > 1.7

    def test_weights_table_matches_classical_formula(self):
        # independent construction from second differences of k^(beta+1);
        # numerically safe only at small N, which suffices as a cross-check.
        # Column j of the weight table is the operator applied to the unit vector e_j.
        beta, n = 0.7, 48
        grid = Grid.uniform(1.0, n)
        op = build_integral_operator(beta, grid)
        table = np.column_stack(
            [apply_integral(op, SampledFunction(grid, e)).values for e in np.eye(n + 1)]
        )
        h = 1.0 / n
        c = h**beta / math.gamma(beta + 2.0)
        for row in (1, 2, 7, n - 1, n):
            expected = np.zeros(n + 1)
            expected[row] = c
            expected[0] = c * ((row - 1.0) ** (beta + 1.0) - row**beta * (row - beta - 1.0))
            for j in range(1, row):
                k = row - j
                expected[j] = c * (
                    (k + 1.0) ** (beta + 1.0) - 2.0 * k ** (beta + 1.0) + (k - 1.0) ** (beta + 1.0)
                )
            assert np.allclose(table[row, : row + 1], expected[: row + 1], rtol=0, atol=1e-12)

    def test_uniform_and_dense_paths_agree(self):
        # a grading a hair above 1 takes the dense table; it must reproduce
        # the convolution path to round-off
        n = 128
        uni = Grid.uniform(1.0, n)
        dense_grid = Grid(1.0, n, 1.0 + 1e-15)  # force the dense branch
        rng = np.random.default_rng(11)
        u = rng.normal(size=n + 1)
        for beta in (0.5, 1.7):
            a = apply_integral(build_integral_operator(beta, uni), SampledFunction(uni, u))
            b = apply_integral(
                build_integral_operator(beta, dense_grid), SampledFunction(dense_grid, u)
            )
            assert np.allclose(a.values, b.values, rtol=0, atol=1e-13)

    def test_product_trapezoid_against_mpmath_cells(self):
        # 40-digit oracle: integrate the kernel against the piecewise-linear
        # interpolant of random samples, cell by cell
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        n = 16
        grid = Grid.uniform(1.0, n)
        rng = np.random.default_rng(5)
        u = rng.uniform(-2.0, 2.0, size=n + 1)
        t = grid.nodes
        for beta in (0.3, 1.7):
            op = build_integral_operator(beta, grid)
            ours = apply_integral(op, SampledFunction(grid, u)).values
            for row in (1, 5, n):
                tn = mp.mpf(row) / n
                total = mp.mpf(0)
                for j in range(row):
                    a, b = mp.mpf(int(j)) / n, mp.mpf(int(j + 1)) / n
                    fa, fb = mp.mpf(float(u[j])), mp.mpf(float(u[j + 1]))
                    # linear interpolant through (a, fa), (b, fb)
                    slope = (fb - fa) / (b - a)
                    # integral of (tn - tau)^(beta-1) (fa + slope (tau - a))
                    s, w = mp.mpf(beta), tn - a
                    v = tn - b
                    m0 = (w**s - v**s) / s
                    m1 = (w ** (s + 1) - v ** (s + 1)) / (s + 1)
                    # tau = tn - u substitution: tau - a = (w - u)
                    total += fa * m0 + slope * (w * m0 - m1)
                oracle = float(total / mp.gamma(beta))
                assert ours[row] == pytest.approx(oracle, rel=3e-14, abs=1e-14)

    def test_overflowing_weights_raise(self):
        # the weights of I^60.5 on [0, 1e6] overflow from t_8 = 125000 on
        grid = Grid(1e6, 64)
        op = build_integral_operator(60.5, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterateError,
                               match=r"^I\^60.5 of finite samples took a non-finite value at t = 125000$"):
                apply_integral(op, SampledFunction(grid, np.ones(65)))
            # samples that are not finite give what they give
            u = np.ones(65)
            u[-1] = np.inf
            assert not np.isfinite(integral_node_values(op, SampledFunction(grid, u))).all()

    def test_grid_mismatch_rejected(self):
        op = build_integral_operator(0.5, Grid.uniform(1.0, 8))
        f = SampledFunction(Grid.uniform(1.0, 16), np.ones(17))
        with pytest.raises(ValueError):
            apply_integral(op, f)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            build_integral_operator(0.0, Grid.uniform(1.0, 8))

    @pytest.mark.parametrize("order", [math.inf, 1e300, math.nan])
    def test_rejects_order_gamma_cannot_hold(self, order):
        # the kernel-moment series never ended for the first two
        with pytest.raises(ValueError, match="order"):
            build_integral_operator(order, Grid.uniform(1.0, 8))


def direct_apply(op: FracIntegralOperator, u: np.ndarray) -> np.ndarray:
    """Uniform-grid apply as a direct O(N^2) np.convolve, the reference
    for the blocked history sum."""
    n, plan = op.grid.n_intervals, op.window()
    out = np.zeros(n + 1)
    out[1:] = np.convolve(plan.stencil, u[1:])[:n] + plan.boundary[1:] * u[0]
    return out


class TestFastHistorySum:
    @pytest.mark.parametrize("n", (2, 16, 100, 257, 512, 513, 1000, 4097, 6000, 8192))
    @pytest.mark.parametrize("beta", (0.3, 1.7))
    def test_matches_direct_convolution(self, beta, n):
        grid = Grid.uniform(1.0, n)
        op = build_integral_operator(beta, grid)
        u = np.random.default_rng(n).normal(size=n + 1)
        ref = direct_apply(op, u)
        out = apply_integral(op, SampledFunction(grid, u)).values
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", (2, 16, 100, 512, 513, 4097, 8192))
    @pytest.mark.parametrize("beta", (0.3, 1.7))
    def test_small_outputs_keep_direct_sum_accuracy(self, beta, n):
        # data spanning 16 decades: every output must keep the error bound of
        # the direct sum, which a single full-length FFT would break at the
        # small end
        grid = Grid.uniform(1.0, n)
        op = build_integral_operator(beta, grid)
        rng = np.random.default_rng(n)
        u = rng.normal(size=n + 1) * 10.0 ** (16.0 * np.arange(n + 1) / n)
        out = apply_integral(op, SampledFunction(grid, u)).values
        err = np.abs(out - direct_apply(op, u))[1:]
        scale = np.convolve(np.abs(op.window().stencil), np.abs(u[1:]))[:n]
        eps = np.finfo(float).eps
        assert np.all(err <= 32 * eps * scale + eps * np.abs(op.window().boundary[1:] * u[0]))

    def test_repeated_applies_are_bitwise_equal(self):
        grid = Grid.uniform(1.0, 6000)
        op = build_integral_operator(0.6, grid)
        f = SampledFunction(grid, np.random.default_rng(1).normal(size=6001))
        assert apply_integral(op, f).values.tobytes() == apply_integral(op, f).values.tobytes()

    def test_concurrent_applies_match_serial(self):
        # library callers may apply one grid's operators from several threads
        grid = Grid.uniform(1.0, 6000)
        f = SampledFunction(grid, np.random.default_rng(2).normal(size=6001))
        serial = apply_integral(build_integral_operator(0.6, grid), f).values
        op = build_integral_operator(0.6, grid)
        workers = 4
        start = threading.Barrier(workers, timeout=30)

        def run(_):
            start.wait()
            return [apply_integral(op, f).values for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                results = list(pool.map(run, range(workers), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(r.tobytes() == serial.tobytes() for rs in results for r in rs)

    @pytest.mark.parametrize("beta", BETAS)
    def test_exact_on_constants_at_large_n(self, beta):
        # criterion 8 where most of every output comes from FFT blocks
        grid = Grid.uniform(1.0, 65536)
        op = build_integral_operator(beta, grid)
        out = apply_integral(op, SampledFunction.from_callable(grid, np.ones_like))
        exact = power_rule(beta, 0.0, grid.nodes)
        rel = np.abs(out.values[1:] - exact[1:]) / exact[1:]
        assert np.max(rel) <= 1e-13

    @pytest.mark.parametrize("n, grading, g", [
        *(pytest.param(n, 1.0, 0.0, id=str(n)) for n in (16, 100, 512, 1000, 1024, 8192, 8229)),
        pytest.param(200, 2.0, 0.0, id="graded-200"),
        pytest.param(200, 2.0, 0.2, id="graded-weighted-200"),
        pytest.param(300, 1.0, 0.2, id="weighted-300"),
    ])
    def test_pushed_history_and_near_field_make_the_apply(self, n, grading, g):
        # how a marching solve sees the apply: windows of several widths
        # inside blocks of 64 nodes, each its near field plus the history
        # pushed so far. Uniform grids use the plan (at N = 16 its block
        # from the zero-padded stencil); at N = 1000 the last block and
        # pushes are cut short, and N = 8192 pushes levels 64 .. 256 by
        # direct sums and 512 .. 4096 by FFTs; N = 8229 adds level 8192 and
        # cuts the last start of a level short. A graded grid and weighted
        # samples (g > 0) use the dense tables; for g > 0 the first window
        # holds t_1 and t_2, from which t_0 is extrapolated. History is
        # pushed at each block start only, as the march pushes it.
        grid = Grid(1.0, n, grading)
        values = np.random.default_rng(n).normal(size=n + 1)
        if g:
            values[0] = np.nan
        widths = (7, 1, 64, 30) if g else (1, 7, 64, 30)
        for beta in (0.5, 1.7):
            op = build_integral_operator(beta, grid)
            ref = integral_node_values(op, SampledFunction(grid, values, g))
            win = op.window(g)
            hist = win.history(values[0])
            got = np.zeros(n + 1)
            lo = 1
            for k in range(n):
                end = block_bounds(lo, n)[1]
                hi = min(lo + widths[k % 4], end)
                near = win.near_field(lo, hi)
                got[lo:hi] = hist[lo:hi] + values[hi - near.shape[0] : hi] @ near
                lo = hi
                if lo > n:
                    break
                if lo == end:
                    win.push(hist, values, range(lo, lo + 1))
            assert lo == n + 1
            assert np.allclose(got[1:], ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("n", (8192, 8229))
    def test_level_push_is_its_single_pushes(self, n):
        # a whole apply pushes all starts of a level at once, the march one
        # at a time: the same bits, direct levels 64 .. 256 and batched FFT
        # rows above alike, also where the last start's segment is cut short
        plan = build_integral_operator(0.5, Grid.uniform(1.0, n)).window()
        rng = np.random.default_rng(n)
        values, start = rng.normal(size=n + 1), rng.normal(size=n + 1)
        h = 64
        while h < n:
            starts = range(h + 1, n + 1, 2 * h)
            batched, single = start.copy(), start.copy()
            plan.push(batched, values, starts)
            for p in starts:
                plan.push(single, values, range(p, p + 1))
            assert batched.tobytes() == single.tobytes(), h
            assert batched.tobytes() != start.tobytes()
            h *= 2

    @pytest.mark.parametrize("n, grading, g", [
        *(pytest.param(n, 1.0, 0.0, id=str(n)) for n in (64, 100, 8192, 8229)),
        pytest.param(300, 1.0, 0.2, id="weighted-300"),
        pytest.param(200, 2.0, 0.2, id="graded-weighted-200"),
    ])
    def test_close_matches_per_block_close(self, n, grading, g):
        # a uniform plan closes all full blocks in one product; each block's
        # own product with its near field is the reference
        grid = Grid(1.0, n, grading)
        rng = np.random.default_rng(n)
        values, hist = rng.normal(size=n + 1), rng.normal(size=n + 1)
        if g:
            values[0] = np.nan
        for beta in (0.5, 1.7):
            win = build_integral_operator(beta, grid).window(g)
            ref = hist.copy()
            for a in range(1, n + 1, 64):
                b = min(a + 64, n + 1)
                ref[a:b] += values[a:b] @ win.near_field(a, b)
            got = win.close(hist.copy(), values)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_non_finite_sample_spoils_its_block_and_after(self):
        # nan at t_100, in the block t_65..t_128: the block's close and the
        # pushes from t_129 on carry it; t_1..t_64 do not see it
        grid = Grid.uniform(1.0, 200)
        u = np.random.default_rng(3).normal(size=201)
        u[100] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = integral_node_values(build_integral_operator(0.5, grid), SampledFunction(grid, u))
        assert np.isfinite(out[:64]).all() and np.isnan(out[64:]).all()

    @pytest.mark.parametrize("grading, g", [(1.0, 0.3), (2.0, 0.0)], ids=["weighted", "graded"])
    def test_non_finite_sample_spoils_its_panel_and_after_on_a_table(self, grading, g):
        # nan at t_100, in the panel of columns 65..128: the product with that
        # panel carries it into its rows, t_65..t_200; t_1..t_64 do not see it
        grid = Grid(1.0, 200, grading)
        u = np.random.default_rng(3).normal(size=201)
        u[0] = np.nan if g else u[0]
        u[100] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = integral_node_values(build_integral_operator(0.5, grid), SampledFunction(grid, u, g))
        assert np.isfinite(out[:64]).all() and np.isnan(out[64:]).all()

    def test_fft_module_loaded_on_import(self):
        # numpy loads numpy.fft lazily; the first apply must not pay for it
        src = os.path.dirname(os.path.dirname(fracpicard.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, fracpicard; print('numpy.fft' in sys.modules)"
        res = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert res.stdout.strip() == "True"


class TestIncompleteBeta:
    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        # x = 1 - 2^-k reaches the symmetric branch's series at 2^-k
        xs = np.concatenate((np.linspace(0.0, 1.0, 41), 1.0 - 2.0 ** -np.arange(1.0, 53.0)))
        worst = 0.0
        for p in (0.2, 0.5, 1.0, 1.5, 1.99):
            for q in (0.3, 0.5, 1.0, 1.7, 2.5, 4.0, 6.0, 9.5, 12.0):
                ours = incomplete_beta(p, q, xs)
                complete = math.gamma(p) * math.gamma(q) / math.gamma(p + q)
                ref = special.betainc(p, q, xs) * complete
                scale = np.maximum(np.abs(ref), 1e-30)
                worst = max(worst, float(np.max(np.abs(ours - ref) / scale)))
        assert worst < 5e-13

    def test_endpoints(self):
        assert incomplete_beta(0.5, 0.7, np.array(0.0)) == 0.0
        full = incomplete_beta(0.5, 0.7, np.array(1.0))
        assert float(full) == pytest.approx(
            math.gamma(0.5) * math.gamma(0.7) / math.gamma(1.2), rel=1e-13
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            incomplete_beta(-0.5, 1.0, np.array(0.5))
        with pytest.raises(ValueError):
            incomplete_beta(0.5, 1.0, np.array(1.5))
        with pytest.raises(ValueError):
            incomplete_beta(0.5, 0.7, np.array([0.3, np.nan]))
        # the series never ended for these
        for p, q in ((math.nan, 0.5), (0.5, math.inf), (math.inf, 0.5), (0.5, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                incomplete_beta(p, q, np.array([0.3]))

    def test_series_stops_at_a_non_finite_coefficient(self):
        with pytest.raises(ValueError, match="not finite"):
            _series_terms(1.0, lambda k: math.nan, 0.0, 1.0)

    def test_shuffled_array_matches_per_element_calls(self):
        # blocked table builds rely on this: a value depends on its own x only
        rng = np.random.default_rng(3)
        x = rng.permutation(np.concatenate((
            [0.0, 0.5, 1.0], rng.uniform(0.0, 0.5, 40), rng.uniform(0.5, 1.0, 40))))
        for p, q in ((0.8, 0.7), (1.8, 0.7), (0.5, 2.3), (1.2, 9.5)):
            per_element = np.array([incomplete_beta(p, q, np.array([v]))[0] for v in x])
            assert incomplete_beta(p, q, x).tobytes() == per_element.tobytes()


def masked_kernel_moments(a: np.ndarray, b: np.ndarray, beta: float):
    """_kernel_moments branch by branch, each on masked copies of its own
    entries: the reference its in-place form must match bit for bit."""
    h = a - b
    m0, m1 = np.empty_like(a), np.empty_like(a)
    zero = b <= 0.0
    m0[zero] = a[zero] ** beta / beta
    m1[zero] = a[zero] ** (beta + 1.0) / (beta * (beta + 1.0))
    nz = ~zero
    an, bn, hn = a[nz], b[nz], h[nz]
    d1 = -(an**beta) * np.expm1(beta * np.log1p(-hn / an))
    m0[nz] = d1 / beta
    m1n = np.empty_like(an)
    r = hn / bn
    ser = r <= 0.5
    d2 = -(an[~ser] ** (beta + 1.0)) * np.expm1((beta + 1.0) * np.log1p(-hn[~ser] / an[~ser]))
    m1n[~ser] = an[~ser] * d1[~ser] / beta - d2 / (beta + 1.0)
    coef = _series_terms(0.5, lambda j: (beta - 1.0 - j) / (j + 3.0), beta - 1.0, 1 / 3)
    acc = np.full_like(r[ser], coef[-1])
    for c in reversed(coef[:-1]):
        acc = acc * r[ser] + c
    m1n[ser] = hn[ser] ** 2 * bn[ser] ** (beta - 1.0) * acc
    m1[nz] = m1n
    return m0, m1


class TestKernelMoments:
    def test_shuffled_array_matches_per_element_calls(self):
        rng = np.random.default_rng(4)
        # b = 0, then h / b above and at or below the series threshold 1/2
        b = rng.permutation(np.concatenate((
            np.zeros(5), rng.uniform(0.1, 1.9, 30), rng.uniform(2.0, 50.0, 30))))
        a = b + 1.0
        for beta in (0.3, 1.0, 1.7, 2.5):
            m0, m1 = _kernel_moments(a, b, beta)
            for i in range(a.size):
                e0, e1 = _kernel_moments(a[i : i + 1], b[i : i + 1], beta)
                assert (m0[i], m1[i]) == (e0[0], e1[0])

    def test_in_place_form_matches_masked_reference(self):
        rng = np.random.default_rng(5)
        # b = 0, then r = h / b above, at and below the series threshold 1/2
        b = rng.permutation(np.concatenate((
            np.zeros(5), [2.0, 2.0 - 1e-15], rng.uniform(1e-6, 1.9, 60),
            rng.uniform(2.0, 50.0, 60))))
        a = b + 1.0
        for beta in (0.3, 0.5, 1.0, 1.7, 2.5, 9.5):
            got, ref = _kernel_moments(a, b, beta), masked_kernel_moments(a, b, beta)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()

    def test_series_branch_against_mpmath(self):
        # M1 = integral_b^a u^(beta-1) (a - u) du with r = (a - b) / b <= 1/2
        mp = pytest.importorskip("mpmath")
        b = 1.3
        for r in (1e-8, 0.1, 0.49, 0.5):
            a = b + r * b
            for beta in (0.3, 0.5, 1.7, 2.5, 9.5):
                _, m1 = _kernel_moments(np.array([a]), np.array([b]), beta)
                with mp.workdps(40):
                    ma, mb = mp.mpf(a), mp.mpf(b)
                    ref = mp.quad(lambda u: u ** (beta - 1) * (ma - u), [mb, ma])
                assert abs(m1[0] - float(ref)) <= 1e-13 * float(ref), (r, beta)


class TestWeightedQuadrature:
    @pytest.mark.parametrize("beta", (0.3, 0.5, 1.0, 1.7))
    @pytest.mark.parametrize("g", (0.25, 0.5, 0.75))
    def test_exact_on_pure_singularity(self, beta, g):
        grid = Grid.uniform(1.0, 256)
        f = SampledFunction.from_callable(grid, lambda t: t**-g, singular_exponent=g)
        if beta <= g:
            return  # covered by the boundary-case test below
        out = apply_integral(build_integral_operator(beta, grid), f)
        exact = math.gamma(1.0 - g) / math.gamma(1.0 - g + beta) * grid.nodes ** (beta - g)
        rel = np.abs(out.values[1:] - exact[1:]) / exact[1:]
        assert np.max(rel) < 5e-13

    def test_exact_on_singular_times_linear(self):
        beta, g = 0.5, 0.25
        grid = Grid.uniform(2.0, 128)
        f = SampledFunction.from_callable(
            grid, lambda t: t**-g * (1.5 - 0.5 * t), singular_exponent=g
        )
        out = apply_integral(build_integral_operator(beta, grid), f)
        t = grid.nodes
        exact = 1.5 * math.gamma(1.0 - g) / math.gamma(1.0 - g + beta) * t ** (beta - g) \
            - 0.5 * math.gamma(2.0 - g) / math.gamma(2.0 - g + beta) * t ** (beta - g + 1.0)
        scale = np.maximum(np.abs(exact[1:]), 1e-3)
        assert np.max(np.abs(out.values[1:] - exact[1:]) / scale) < 1e-12

    def test_exact_on_graded_mesh(self):
        beta, g = 0.5, 0.5
        grid = Grid(1.0, 128, 2.5)
        f = SampledFunction.from_callable(grid, lambda t: t**-g, singular_exponent=g)
        vals = integral_node_values(build_integral_operator(beta, grid), f)
        # boundary case beta = g: the exact image is the constant gamma(1-g)
        assert np.allclose(vals, math.gamma(0.5), rtol=1e-12)

    @pytest.mark.parametrize("grading", [2.0, 3.0])
    @pytest.mark.parametrize("beta", BETAS)
    def test_exact_on_graded_mesh_near_origin(self, grading, beta):
        # S = J1 - t_j J0 cancels where x_j = t_j / t_row is small, which a
        # graded mesh puts next to the origin
        grid = Grid(1.0, 256, grading)
        op = build_integral_operator(beta, grid)
        t = grid.nodes[1:]
        for g in (0.1, 0.25, 0.5, 0.75):
            if beta <= g:
                continue
            pure = math.gamma(1.0 - g) / math.gamma(1.0 - g + beta) * t ** (beta - g)
            ramp = 2.0 * math.gamma(2.0 - g) / math.gamma(2.0 - g + beta) * t ** (beta - g + 1.0)
            for fn, exact in ((lambda s: s**-g, pure),
                              (lambda s: s**-g * (1.0 + 2.0 * s), pure + ramp)):
                f = SampledFunction.from_callable(grid, fn, singular_exponent=g)
                rel = np.abs(integral_node_values(op, f) - exact) / exact
                assert np.max(rel) <= 5e-13, (g, np.max(rel))

    def test_boundary_case_constant(self):
        g = 0.25
        grid = Grid.uniform(1.0, 64)
        f = SampledFunction.from_callable(grid, lambda t: t**-g, singular_exponent=g)
        vals = integral_node_values(build_integral_operator(g, grid), f)
        assert np.allclose(vals, math.gamma(1.0 - g), rtol=1e-12)

    def test_continuous_image_requires_order_above_exponent(self):
        grid = Grid.uniform(1.0, 32)
        f = SampledFunction.from_callable(grid, lambda t: t**-0.5, singular_exponent=0.5)
        with pytest.raises(ValueError):
            apply_integral(build_integral_operator(0.3, grid), f)

    def test_image_is_regular_and_vanishes_at_origin(self):
        grid = Grid.uniform(1.0, 64)
        f = SampledFunction.from_callable(grid, lambda t: t**-0.5, singular_exponent=0.5)
        out = apply_integral(build_integral_operator(0.8, grid), f)
        assert out.singular_exponent == 0.0
        assert out.values[0] == 0.0

    def test_weighted_table_cached(self):
        grid = Grid.uniform(1.0, 32)
        op = build_integral_operator(0.8, grid)
        f = SampledFunction.from_callable(grid, lambda t: t**-0.5, singular_exponent=0.5)
        apply_integral(op, f)
        table_first = op._weighted_tables[0.5]
        apply_integral(op, f)
        assert op._weighted_tables[0.5] is table_first


def per_row_graded_table(beta: float, t: np.ndarray) -> np.ndarray:
    """The dense table of a graded grid, built one row at a time, row r - 1
    for node t_r."""
    n = t.size - 1
    ginv = 1.0 / gamma(beta)
    table = np.zeros((n, n + 1))
    for row in range(1, n + 1):
        a = t[row] - t[:row]
        b = t[row] - t[1 : row + 1]
        m0, m1 = _kernel_moments(a, b, beta)
        table[row - 1, :row] += (m0 - m1 / (a - b)) * ginv
        table[row - 1, 1 : row + 1] += (m1 / (a - b)) * ginv
    return table


def per_row_weighted_table(beta: float, g: float, t: np.ndarray) -> np.ndarray:
    """The weighted table, built one row at a time: S = J1 - t_j J0 from
    one incomplete beta series through B_x(p+1, q) = (p B_x(p, q) - F) / (p+q),
    F = x^p (1-x)^q. Column j >= 1 carries t_j^g, and the weight of t^g f at
    t_0, extrapolated from t_1 and t_2, moves into columns 1 and 2."""
    n = t.size - 1
    p = 1.0 - g
    table = np.zeros((n, n + 1))
    for row in range(1, n + 1):
        tr = t[row : row + 1]
        x = np.clip(t[: row + 1] / tr, 0.0, 1.0)
        db = np.diff(incomplete_beta(p, beta, x))
        df = np.diff(x**p * (1.0 - x) ** beta)
        s = tr ** (beta - g + 1.0) * ((p / (p + beta) - x[:-1]) * db - df / (p + beta))
        s /= np.diff(t[: row + 1])
        table[row - 1, :row] += tr ** (beta - g) * db - s
        table[row - 1, 1 : row + 1] += s
    table *= 1.0 / gamma(beta)
    c = t[1] / (t[2] - t[1])
    table[:, 1:] *= t[1:] ** g
    table[:, 1:3] += np.outer(table[:, 0], t[1:3] ** g * (1.0 + c, -c))
    table[:, 0] = 0.0
    return table


def dense(table: _Table) -> np.ndarray:
    """The N x (N + 1) array a table's column 0 and panels hold, zero above
    the panels."""
    n = table.n
    out = np.zeros(table.shape)
    if table.column0 is not None:
        out[:, 0] = table.column0
    for a, panel in zip(range(1, n + 1, 64), table.panels):
        out[a - 1 :, a : a + panel.shape[1]] = panel
    return out


def dense_far_table(beta: float, g: float, t: np.ndarray, j_far: int) -> np.ndarray:
    """The cells j >= j_far of a uniform weighted table (without 1/gamma(beta)
    or the t^g fold) in one column-major N x (N + 1) array: 64 columns at a
    time from j_far on, each one product with the Toeplitz moments, of the
    shape the panel build takes."""
    n = t.size - 1
    m = np.arange(_FAR_TERMS + 1.0)
    b = _series_terms(1.0, lambda k: (k + 1.0 - beta) / (k + 1.0), beta - 1.0, 2.0 ** min(1 - beta, 0))
    powers = np.vander(1.0 / np.arange(1.0, n - j_far + 2), len(b), increasing=True)
    s = np.empty((m.size, n - j_far + 1))
    _matmul(b / (m[:, None] + np.arange(1.0, len(b) + 1)), powers.T, s)
    s[:, 0] = np.cumprod(np.concatenate(([1.0 / beta], m[1:] / (m[1:] + beta))))
    s *= t[1 : n - j_far + 2] ** (beta - 1.0)
    left = s[:-1, :-1] - s[1:, :-1]
    left[:, 0] = s[:-1, 0] * beta / (m[:-1] + 1.0 + beta)
    moments = np.vstack((np.pad(left, ((0, 0), (1, 0))), s[1:]))
    binom = np.cumprod(np.concatenate(([1.0], (-g - m[:-2]) / (m[:-2] + 1.0))))
    a = t[1] * t[j_far - 1 :, None] ** -g * binom * np.arange(j_far - 1.0, n + 1.0)[:, None] ** -m[:-1]
    a[0] = 0.0
    coef = np.hstack((a[1:], a[:-1]))
    flat = np.zeros((n + 1) * n)
    for c0 in range(j_far, n, 64):
        c1 = min(c0 + 64, n)
        k, w = c1 - c0, n - c0 + 1
        # out[q, e] is row c0 + q - 1 + e of column c0 + q; past row n - 1 it
        # runs on into the top rows of the next column, zeroed after
        out = flat[c0 * (n + 1) - 1 : c1 * (n + 1) - 1].reshape(k, n + 1)[:, :w]
        _matmul(coef[c0 - j_far : c1 - j_far], moments[:, :w], out)
        out[:, w - k + 1 :][np.add.outer(np.arange(k), np.arange(k - 1)) >= k - 1] = 0.0
    table = flat.reshape(n + 1, n).T
    table[-1, -1] = coef[-1] @ moments[:, 0]
    return table


def dense_table(beta: float, g: float, grid: Grid) -> np.ndarray:
    """The table of I^beta for singular exponent g on grid as one N x (N + 1)
    array, built as before tables were held as panels: the cells in blocks of
    64 rows (all rows for a uniform weighted table) added into that array,
    then 1/gamma(beta), t^g and the t_0 fold over it whole."""
    t, n, ginv = grid.nodes, grid.n_intervals, 1.0 / gamma(beta)
    near = min(n, _FAR_CELL) if grid.is_uniform and g else n
    table = dense_far_table(beta, g, t, near) if near < n else np.zeros((n, n + 1))
    p = 1.0 - g
    for start in range(1, n + 1, n if near < n else 64):
        rows = np.arange(start, min(start + (n if near < n else 64), n + 1))
        c = min(rows[-1], near)
        tr = t[rows][:, None]
        if g:
            x = np.clip(t[None, : c + 1] / tr, 0.0, 1.0)
            db = np.diff(incomplete_beta(p, beta, x), axis=1)
            df = np.diff(x**p * (1.0 - x) ** beta, axis=1)
            wr = tr ** (beta - g + 1.0) * ((p / (p + beta) - x[:, :-1]) * db - df / (p + beta))
            wr /= np.diff(t[: c + 1])
            wl = tr ** (beta - g) * db - wr
        else:
            live = np.arange(c) < rows[:, None]
            a, b = (tr - t[:c])[live], (tr - t[1 : c + 1])[live]
            m0, m1 = _kernel_moments(a, b, beta)
            wl, wr = np.zeros(live.shape), np.zeros(live.shape)
            wl[live], wr[live] = (m0 - m1 / (a - b)) * ginv, m1 / (a - b) * ginv
        block = table[start - 1 : rows[-1], : wl.shape[1] + 1]
        block[:, :-1] += wl
        block[:, 1:] += wr
    if g:
        table *= ginv
        c = t[1] / (t[2] - t[1])
        table[:, 1:] *= t[1:] ** g
        table[:, 1:3] += np.outer(table[:, 0], t[1:3] ** g * (1.0 + c, -c))
        table[:, 0] = 0.0
    return table


def mp_weighted_row(beta: float, g: float, horizon: float, n: int, row: int) -> np.ndarray:
    """Row t_row of the weighted table on the uniform grid t_j = j h, h =
    horizon / n, in 40-digit mpmath: J0 = t_row^(beta-g) B_x(p, beta) over
    each cell from mp.betainc, p = 1 - g, x_j = j / row, and S = J1 - t_j J0
    through B_x(p+1, beta) = (p B_x(p, beta) - x^p (1-x)^beta) / (p+beta)
    (DLMF 8.17.20). Folded as per_row_weighted_table: column j >= 1 times
    t_j^g, and column 0 into columns 1 and 2 by the line through them."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        beta, g = mp.mpf(beta), mp.mpf(g)
        p, h = 1 - g, mp.mpf(horizon) / n
        tr = row * h
        x = [mp.mpf(j) / row for j in range(row + 1)]
        f = [v**p * (1 - v) ** beta for v in x]
        out = [mp.mpf(0)] * (n + 1)
        for j in range(row):
            db = mp.betainc(p, beta, x[j], x[j + 1])
            s = tr ** (beta - g + 1) * ((p / (p + beta) - x[j]) * db - (f[j + 1] - f[j]) / (p + beta))
            out[j] += tr ** (beta - g) * db - s / h
            out[j + 1] += s / h
        w0, out[0] = out[0], mp.mpf(0)
        out = [v * (j * h) ** g for j, v in enumerate(out)]
        out[1] += 2 * w0 * h**g  # c = t_1 / (t_2 - t_1) = 1
        out[2] -= w0 * (2 * h) ** g
        return np.array([float(v / mp.gamma(beta)) for v in out])


class TestTableSharing:
    def test_same_order_on_one_grid_shares_the_table(self):
        grid = Grid.uniform(1.0, 40)
        a = build_integral_operator(0.7, grid)
        b = build_integral_operator(0.7, grid)
        assert a._dense_table(0.3) is b._dense_table(0.3)

    def test_equal_grid_or_other_order_builds_its_own(self):
        grid = Grid.uniform(1.0, 40)
        twin = Grid.uniform(1.0, 40)
        table = build_integral_operator(0.7, grid)._dense_table(0.3)
        on_twin = build_integral_operator(0.7, twin)._dense_table(0.3)
        other_order = build_integral_operator(0.9, grid)._dense_table(0.3)
        assert on_twin is not table and np.array_equal(dense(on_twin), dense(table))
        assert other_order is not table
        assert grid == twin and hash(grid) == hash(twin)

    @pytest.mark.parametrize("n,grading", [(40, 1.0), (130, 1.0), (512, 1.0), (40, 2.5), (130, 2.5)])
    def test_blocked_builds_match_per_row_reference(self, n, grading):
        # 130 rows span three blocks, the last one partial. A uniform table
        # takes its cells from _FAR_CELL on from Toeplitz moments: its first
        # columns are the incomplete-beta cells bit for bit, column _FAR_CELL
        # (which holds the right end of the last of those) is no worse than
        # that build, and the later columns are within 4e-15 of the row
        # maximum, where that build loses about N^2 eps
        grid = Grid(1.3, n, grading)
        for beta in (0.4, 1.0, 2.3):
            op = build_integral_operator(beta, grid)
            for g in (0.2, 0.6):
                ref = per_row_weighted_table(beta, g, grid.nodes)
                table = dense(op._dense_table(g))
                if grading != 1.0:
                    assert table.tobytes() == ref.tobytes()
                    continue
                j = _FAR_CELL
                assert np.array_equal(table[:, :j], ref[:, :j])
                for row in sorted({9, 40, n}):
                    exact = mp_weighted_row(beta, g, 1.3, n, row)
                    scale = np.max(np.abs(exact))
                    err = np.abs(table[row - 1] - exact) / scale
                    assert err[j] <= np.max(np.abs(ref[row - 1, : j + 1] - exact[: j + 1])) / scale
                    assert np.max(err[j + 1 :]) < 4e-15
            if grading != 1.0:
                assert dense(op.window()).tobytes() == per_row_graded_table(beta, grid.nodes).tobytes()

    @pytest.mark.parametrize("n,grading", [(2, 1.0), (8, 1.0), (9, 1.0), (40, 1.0), (64, 1.0),
                                           (65, 1.0), (129, 1.0), (130, 1.0), (512, 1.0),
                                           (1000, 1.0), (2, 2.5), (40, 2.5), (65, 2.5),
                                           (129, 2.5), (130, 2.5)])
    def test_panels_hold_the_dense_build_bit_for_bit(self, n, grading):
        # 1000 = 15 * 64 + 40: the last panel is cut short; above the panels
        # the dense build holds zeros. At N = 2 and 8 a uniform weighted table
        # has no far cells, at 9 one; 64 is one full panel, and 65 and 129
        # end in a panel of one column
        grid = Grid(1.3, n, grading)
        for beta in (0.4, 1.0, 2.3):
            op = build_integral_operator(beta, grid)
            for g in (0.2, 0.6) if grid.is_uniform else (0.0, 0.2, 0.6):
                assert dense(op._dense_table(g)).tobytes() == dense_table(beta, g, grid).tobytes()

    def test_weighted_build_peak_memory(self):
        # the table and the panel fill's temporaries: extra temporaries show here
        # first; the N x (N + 1) array alone would take 512 * 513 * 8 bytes
        op = build_integral_operator(0.7, Grid.uniform(1.0, 512))
        tracemalloc.start()
        try:
            table = op._dense_table(0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * table.nbytes
        assert peak < 512 * 513 * 8

    @pytest.mark.parametrize("n,grading,g", [(130, 1.0, 0.2), (512, 1.0, 0.2), (130, 2.5, 0.0)])
    def test_table_holds_its_panels(self, n, grading, g):
        # N = 64 q + r: q panels of 64 columns and N, N - 64, .. rows, one of
        # r x r, and column 0 where the table is plain; the panels are views
        # of one array, so a table too large for memory fails on allocation
        q, r = divmod(n, 64)
        floats = 64 * (q * n - 64 * q * (q - 1) // 2) + r * r + (0 if g else n)
        table = build_integral_operator(0.7, Grid(1.0, n, grading))._dense_table(g)
        assert table.shape == (n, n + 1) and table.nbytes == 8 * floats
        assert len({id(panel.base) for panel in table.panels}) == 1
        assert table.panels[0].base.nbytes == 8 * (floats - (0 if g else n))

    @pytest.mark.parametrize("gamma,rhs,grading", [
        (0.3, "t^(-0.3) + 0*z1", "1"),  # the weighted table of phi
        (0.0, "-z1", "2"),  # the plain table: solve and all four checks use order 0.5
    ], ids=["singular", "graded"])
    def test_cli_verify_builds_one_weighted_table(self, tmp_path, monkeypatch, gamma, rhs, grading):
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 1.0, "gamma": gamma, "rhs": rhs,
        }))
        misses = []
        build = FracIntegralOperator._dense_table

        def counting(self, g):
            if round(g, 15) not in self._weighted_tables:
                misses.append((self.order, g))
            return build(self, g)

        monkeypatch.setattr(FracIntegralOperator, "_dense_table", counting)
        main(["--config", str(cfg), "--mode", "verify", "--n-points", "64",
              "--grading", grading, "--output", str(tmp_path / "v.csv")])
        assert misses == [(0.5, gamma)]


def one_call_rule(beta: float, grid: Grid) -> tuple:
    """Stencil, boundary column and history plan (near-field block, the
    spectra of the levels 2 _DIRECT_PUSH, 4 _DIRECT_PUSH, .. below N that
    a plan's push takes by FFT) of a uniform operator, from one
    masked_kernel_moments call over all N cells."""
    n, h = grid.n_intervals, grid.nodes[1]
    k = np.arange(1, n + 1, dtype=float)
    m0, m1 = masked_kernel_moments(k * h, (k - 1.0) * h, beta)
    ginv = 1.0 / gamma(beta)
    left, right = (m0 - m1 / h) * ginv, (m1 / h) * ginv
    stencil = np.concatenate((right[:1], left[:-1] + right[1:]))
    i = np.arange(64)
    s = np.pad(stencil[:64], (0, max(64 - n, 0)))
    first = 2 * fracpicard.fractional_ops._DIRECT_PUSH
    levels = [first << j for j in range(n.bit_length()) if first << j < n]
    return (stencil, np.concatenate(([0.0], left)), np.triu(s[abs(i[:, None] - i)]),
            [rfft(stencil[: 2 * w], 2 * w) for w in levels])


class TestPlainRuleOnFirstUse:
    def test_construction_builds_nothing(self):
        for grid in (Grid.uniform(1.0, 64), Grid(1.0, 64, 2.0)):
            op = build_integral_operator(0.5, grid)
            assert op._windows == {}
            assert grid._tables == {0.5: {}}

    def test_each_grid_and_g_gets_its_kind(self):
        # a plan only at g = 0 on a uniform grid; a table of the grid's store
        # otherwise, weighted for g > 0; each made once and kept
        grid = Grid.uniform(1.0, 64)
        op = build_integral_operator(0.5, grid)
        weighted = op.window(0.3)
        assert isinstance(weighted, _Table) and weighted.weighted
        assert weighted is grid._tables[0.5][0.3] and list(op._windows) == [0.3]
        assert isinstance(op.window(), _Plan) and op.window(0.3) is weighted
        assert op.window() is op.window() and list(grid._tables[0.5]) == [0.3]
        grid = Grid(1.0, 64, 2.0)
        graded = build_integral_operator(0.5, grid).window()
        assert isinstance(graded, _Table) and not graded.weighted
        assert graded is grid._tables[0.5][0.0]
        assert build_integral_operator(0.5, grid).window() is graded

    @pytest.mark.parametrize("n", [16, 512, 4097, 8192])
    def test_parts_match_one_call_reference(self, n):
        grid = Grid.uniform(1.3, n)
        for beta in (0.3, 0.6, 1.0, 2.5):
            stencil, boundary, block, spectra = one_call_rule(beta, grid)
            plan = build_integral_operator(beta, grid).window()
            assert plan.block.tobytes() == block.tobytes()
            assert [s.tobytes() for s in plan.spectra] == [s.tobytes() for s in spectra]
            assert plan.stencil.tobytes() == stencil.tobytes()
            assert plan.boundary.tobytes() == boundary.tobytes()

    def test_a_tiny_exponent_keeps_its_own_table(self):
        # g = 1e-16 rounds to the plain table's key 0.0 at 15 digits, yet
        # takes the weighted rule: its table must not serve later plain
        # applies on the grid, which need the plain rule's f(t_0) column
        grid = Grid(1.0, 64, 2.0)
        f = np.exp(-300.0 * grid.nodes)
        tiny = SampledFunction(grid, np.concatenate(([np.nan], f[1:])), 1e-16)
        integral_node_values(build_integral_operator(0.5, grid), tiny)
        got = integral_node_values(build_integral_operator(0.5, grid), SampledFunction(grid, f))
        fresh = Grid(1.0, 64, 2.0)
        ref = integral_node_values(build_integral_operator(0.5, fresh), SampledFunction(fresh, f))
        assert np.array_equal(got, ref)
        assert sorted(grid._tables[0.5]) == [0.0, 1e-16]

    def test_rule_build_holds_few_arrays(self):
        # a marching solve makes the plan first with its own arrays alive:
        # the build's peak adds to theirs
        n = 8192
        grid = Grid.uniform(1.0, n)
        tracemalloc.start()
        try:
            build_integral_operator(0.6, grid).window()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * n

    def test_singular_verify_takes_the_moments_once(self, tmp_path, monkeypatch):
        # I^0.5 (solve and three checks) only meets weighted samples; only
        # the Caputo derivative's I^0.5 applies the plain rule
        calls = []
        moments = fracpicard.fractional_ops._kernel_moments

        def counting(a, b, beta):
            calls.append(beta)
            return moments(a, b, beta)

        monkeypatch.setattr(fracpicard.fractional_ops, "_kernel_moments", counting)
        rc = main(["--config", str(CONFIGS / "singular_forcing.json"), "--mode", "verify",
                   "--n-points", "512", "--ode-tol", "0.05", "--output", str(tmp_path / "v.csv")])
        assert rc == 0 and calls == [0.5]

    def test_graded_singular_solve_builds_no_plain_table(self):
        problem = fracpicard.problem_from_dict({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 1.0, "gamma": 0.3, "rhs": "t^(-0.3) + 0*z1",
        })
        grid = Grid(1.0, 128, 2.0)
        fracpicard.solve(problem, grid)
        assert list(grid._tables) == [0.5] and list(grid._tables[0.5]) == [0.3]

    def test_uniform_singular_solve_makes_no_plan(self, monkeypatch):
        # on a uniform grid too, the inner operators of a gamma > 0 solve meet
        # weighted samples only: none makes the plain rule and its plan
        made = []
        init = _Plan.__init__

        def counting(self, beta, ginv, grid):
            made.append(beta)
            init(self, beta, ginv, grid)

        monkeypatch.setattr(_Plan, "__init__", counting)
        spec = {"alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
                "horizon": 1.0, "rhs": "-z1"}
        grid = Grid.uniform(1.0, 128)
        singular = {**spec, "gamma": 0.3, "rhs": "t^(-0.3) - z1"}
        fracpicard.solve(fracpicard.problem_from_dict(singular), grid)
        assert made == [] and list(grid._tables[0.5]) == [0.3]
        fracpicard.solve(fracpicard.problem_from_dict(spec), grid)  # the hook sees plans
        assert made == [0.5]


class TestCaputoDerivative:
    def test_power_rule_fractional(self):
        # D^1.5 t^2 = gamma(3)/gamma(1.5) t^0.5, checked away from the edges
        grid = Grid.uniform(1.0, 512)
        y = SampledFunction.from_callable(grid, lambda t: t**2)
        d = caputo_derivative(y, 1.5, (0.0, 0.0))
        t = grid.nodes[16:-16]
        exact = math.gamma(3.0) / math.gamma(1.5) * t**0.5
        assert np.max(np.abs(d.values[16:-16] - exact)) < 2e-3

    def test_integer_order_is_plain_derivative(self):
        grid = Grid.uniform(1.0, 256)
        y = SampledFunction.from_callable(grid, lambda t: t**3 + t)
        d = caputo_derivative(y, 2.0, (0.0, 1.0))
        exact = 6.0 * grid.nodes
        assert np.max(np.abs(d.values[4:-4] - exact[4:-4])) < 1e-9

    def test_annihilates_initial_polynomial(self):
        grid = Grid.uniform(1.0, 64)
        b = (0.7, -1.3)
        y = derivative_taylor_part(b, 0.0, grid)
        d = caputo_derivative(y, 1.5, b)
        assert np.max(np.abs(d.values)) == 0.0

    def test_overflowing_apply_raises(self):
        # I^0.5 of 1e308 on [0, 100] overflows from t = 3.125 on; the
        # apply is checked as integral_node_values checks it
        grid = Grid.uniform(100.0, 64)
        y = SampledFunction(grid, np.full(65, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterateError,
                               match=r"^I\^0.5 of finite samples took a non-finite value at t = 3.125$"):
                caputo_derivative(y, 0.5, (0.0,))

    def test_validation(self):
        grid = Grid.uniform(1.0, 64)
        y = SampledFunction.from_callable(grid, lambda t: t)
        with pytest.raises(ValueError):
            caputo_derivative(y, 1.5, (0.0,))  # needs 2 initial values
        s = SampledFunction.from_callable(grid, lambda t: t**-0.5, singular_exponent=0.5)
        with pytest.raises(ValueError):
            caputo_derivative(s, 0.5, (0.0,))  # singular samples refused
        tiny = Grid.uniform(1.0, 3)
        y3 = SampledFunction.from_callable(tiny, lambda t: t)
        with pytest.raises(ValueError):
            caputo_derivative(y3, 2.0, (0.0, 1.0))  # too coarse to difference twice


class TestPolynomialFromDerivatives:
    """derivative_taylor_part at order 0: the polynomial sum_j b_j t^j / j!."""

    def test_matches_factorial_series(self):
        grid = Grid(2.0, 8)
        t = grid.nodes
        b = (1.0, -2.0, 3.0, 0.5)
        expected = sum(b[j] / math.factorial(j) * t**j for j in range(4))
        assert np.allclose(derivative_taylor_part(b, 0.0, grid).values, expected, rtol=1e-14)

    def test_factorial_series_bitwise_through_degree_22(self):
        # gamma(j + 1) is j! exactly and t^(j - 0.0) is t^j bitwise for j <= 22
        grid = Grid(3.0, 40)
        t = grid.nodes
        b = np.random.default_rng(5).uniform(-2.0, 2.0, 23)
        expected = np.zeros_like(t)
        for j, bj in enumerate(b):
            expected = expected + (bj / math.factorial(j)) * t**j
        assert np.array_equal(derivative_taylor_part(b, 0.0, grid).values, expected)

    def test_zero_coefficients_skip_an_overflowing_power(self):
        # t^60 overflows a double at t = 1e6; 0 * inf must not turn 1 into nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = derivative_taylor_part([1.0] + [0.0] * 60, 0.0, Grid(1e6, 3)).values
        assert np.array_equal(out, np.ones(4))

    @given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_zero_padding_is_bitwise_neutral(self, b):
        grid = Grid(1.0, 32)
        plain = derivative_taylor_part(b, 0.0, grid).values
        padded = derivative_taylor_part(list(b) + [0.0, 0.0], 0.0, grid).values
        assert np.array_equal(plain, padded)
