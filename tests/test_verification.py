"""Verification harness tests.

The residual checks are exercised on a manufactured problem whose exact
solution is t^2 (so every claimed property can be checked against pencil
and paper), plus a corrupted trajectory as a negative control: a harness
that passes everything checks nothing.

Decay-law tests use the exact first-node value

    I^(alpha) [ t^(-g) ](t_1) = gamma(1-g)/gamma(1+alpha-g) t_1^(alpha-g)

which the weighted product rule reproduces to near machine precision.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from fracpicard.fractional_ops import Grid, SampledFunction
from fracpicard.picard_solver import NonFiniteIterateError, solve
from fracpicard.problem_model import problem_from_dict
from fracpicard.verification import (
    check_equivalence,
    composition_identity,
    initial_limit_checks,
    origin_decay,
)

GAMMA_HALF_3 = 0.8862269254527580  # gamma(3/2)


def _manufactured():
    # D^1.5 y = 2 t^0.5 / gamma(1.5), y = t^2 exactly, y(0) = y'(0) = 0
    return problem_from_dict({
        "alpha": 1.5,
        "derivative_orders": [0.5],
        "initial_values": [0.0, 0.0],
        "horizon": 1.0,
        "rhs": "2*t^0.5/0.88622692545275801 + 0*z1",
    })


def _solved(problem, n=256, grading=1.0):
    grid = Grid(problem.horizon, n, grading)
    traj = solve(problem, grid)
    assert traj.report.converged
    return grid, traj


class TestEquivalenceChecks:
    def test_manufactured_residuals_small(self):
        problem = _manufactured()
        grid, traj = _solved(problem, n=512)
        report = check_equivalence(traj, problem)
        assert report.volterra_residual < 1e-6
        assert report.ode_residual < 1e-3
        assert report.nodes_skipped < grid.n_intervals // 4
        # recovering y'(0) divides the solver error by h, so the bound is loose
        assert max(report.ic_errors) < 5e-3

    def test_relaxation_residuals(self):
        problem = problem_from_dict({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 1.0, "rhs": "-z1",
        })
        grid, traj = _solved(problem, n=512)
        report = check_equivalence(traj, problem)
        assert report.volterra_residual < 1e-4
        assert report.ode_residual < 1e-2
        assert report.ic_errors[0] < 1e-3

    def test_corrupted_solution_is_flagged(self):
        problem = _manufactured()
        grid, traj = _solved(problem, n=256)
        clean = check_equivalence(traj, problem)
        bad = dataclasses.replace(
            traj, y=SampledFunction(traj.grid, 1.1 * traj.y.values, 0.0)
        )
        dirty = check_equivalence(bad, problem)
        assert dirty.volterra_residual > 100 * max(clean.volterra_residual, 1e-12)
        assert dirty.ode_residual > 100 * max(clean.ode_residual, 1e-12)

    def test_singular_problem_residuals(self):
        problem = problem_from_dict({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 1.0, "gamma": 0.3, "rhs": "t^(-0.3) + 0*z1",
        })
        grid, traj = _solved(problem, n=512)
        report = check_equivalence(traj, problem)
        # y ~ t^0.2 has unbounded derivatives at 0, so the differential
        # residual near the skipped zone converges slowly
        assert report.volterra_residual < 1e-8
        assert report.ode_residual < 5e-2

    def test_small_grid_rejected(self):
        problem = _manufactured()
        _, traj = _solved(problem, n=8)
        with pytest.raises(ValueError):
            check_equivalence(traj, problem)


class TestDecayLaw:
    def test_first_value_exact(self):
        alpha, g = 0.5, 0.3
        grid = Grid.uniform(1.0, 256)
        report = origin_decay(g, alpha, grid)
        t1 = grid.nodes[1]
        expected = math.gamma(1.0 - g) / math.gamma(1.0 + alpha - g) * t1 ** (alpha - g)
        assert report.first_value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha,g", [(0.5, 0.0), (0.5, 0.3), (1.5, 0.5), (2.5, 0.25)])
    def test_slope_and_limit(self, alpha, g):
        report = origin_decay(g, alpha, Grid.uniform(1.0, 1024))
        assert report.slope == pytest.approx(alpha - g, abs=0.02)
        assert abs(report.limit_estimate) < 1e-6
        assert report.hypothesis_ok

    def test_degenerate_exponent_constant(self):
        # g == alpha: the transform is identically gamma(1-g), no decay
        report = origin_decay(0.5, 0.5, Grid.uniform(1.0, 256))
        assert report.slope == 0.0
        assert report.limit_estimate == pytest.approx(math.gamma(0.5), rel=1e-10)
        assert not report.hypothesis_ok

    def test_parameter_validation(self):
        grid = Grid.uniform(1.0, 64)
        with pytest.raises(ValueError):
            origin_decay(-0.1, 0.5, grid)
        with pytest.raises(ValueError):
            origin_decay(1.2, 0.5, grid)
        with pytest.raises(ValueError):
            origin_decay(0.0, -1.0, grid)
        with pytest.raises(ValueError):
            origin_decay(0.0, 0.5, Grid.uniform(1.0, 3))

    def test_a_first_decade_of_one_node(self):
        # at grading 4 and N = 16, t_2 = 16 t_1: the slope is fitted to the
        # first three nodes instead
        report = origin_decay(0.2, 0.5, Grid(1.0, 16, 4.0))
        assert report.slope == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("alpha, g, grid", [
        (150.0, 0.0, Grid(1e-3, 16)), (120.0, 0.0, Grid(1.0, 16, 3.0)), (170.0, 0.3, Grid(1.0, 16)),
    ])
    def test_underflowed_values_are_flat(self, alpha, g, grid):
        # the first values underflow to 0: the sequence is flat, with nothing
        # to fit a slope to
        report = origin_decay(g, alpha, grid)
        assert report.first_value == report.slope == report.limit_estimate == 0.0

    def test_overflowing_samples_raise(self):
        # t^-0.99 overflows on the subnormal nodes of this grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterateError, match=r"^t\^-0.99 took .* at t = 6.22523e-322$"):
                origin_decay(0.99, 2.0, Grid(1e-320, 16))

    def test_violated_hypothesis_reported_not_raised(self):
        # gamma above alpha: the transform blows up at 0 and the report
        # says so instead of raising
        report = origin_decay(0.6, 0.5, Grid.uniform(1.0, 256))
        assert not report.hypothesis_ok
        assert report.slope < 0.0


    def test_overflowing_weights_raise(self):
        # I^60.5 t^0 overflows from t_8 = 125000 on: no report of nan values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterateError, match=r"^I\^60.5 .* at t = 125000$"):
                origin_decay(0.0, 60.5, Grid(1e6, 64))


class TestCompositionIdentity:
    def test_low_degree_defect_is_exactly_zero(self):
        grid = Grid.uniform(1.0, 128)
        assert composition_identity((1.0, -2.0), 1.5, grid) == 0.0
        assert composition_identity((3.0,), 0.5, grid) == 0.0

    def test_high_degree_defect_small(self):
        grid = Grid.uniform(1.0, 1024)
        defect = composition_identity((1.0, 0.5, -1.0, 0.25, 0.0, 1.0), 1.5, grid)
        assert 0.0 < defect < 1e-3

    def test_integer_order(self):
        grid = Grid.uniform(1.0, 1024)
        defect = composition_identity((0.0, 1.0, 1.0, 0.5), 1.0, grid)
        assert defect < 1e-3

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            composition_identity([1, 2], 0.0, Grid.uniform(1.0, 16))


class TestInitialLimits:
    def test_manufactured_limits_vanish(self):
        problem = _manufactured()
        grid, traj = _solved(problem, n=512)
        checks = initial_limit_checks(problem, traj)
        assert len(checks) == problem.n
        assert max(checks) < 1e-2

    def test_relaxation_limits_vanish(self):
        problem = problem_from_dict({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 1.0, "rhs": "-z1",
        })
        grid, traj = _solved(problem, n=512)
        checks = initial_limit_checks(problem, traj)
        assert checks[0] < 5e-2

    @pytest.mark.parametrize("alpha, b, rhs", [
        (0.5, [1.0], "t"),  # an extrapolated limit
        (1.5, [1.0, 0.0], "0*z1"),  # phi = 0: flat, the first value is the limit
    ])
    def test_limits_are_floats(self, alpha, b, rhs):
        problem = problem_from_dict({"alpha": alpha, "derivative_orders": [0.0],
                                     "initial_values": b, "horizon": 1.0, "rhs": rhs})
        _, traj = _solved(problem, n=64)
        assert all(type(v) is float for v in initial_limit_checks(problem, traj))

    def test_a_fifth_derivative_recovers_at_half_order(self):
        # D^4.5 y = -y: the estimate of y^(4)(0) takes no Richardson step
        # (its stride-2 stencil would need 9 of the first 8 nodes), and y^(4)
        # ~ b_4 + c t^(1/2) near 0, so its error falls as h^(1/2), by about 2
        # when N grows 4x. At N = 256 it reads 0.0989, above the verify
        # threshold 0.0525: verify fails there on the estimate, not the solve
        problem = problem_from_dict({"alpha": 4.5, "derivative_orders": [0.0],
                                     "initial_values": [1.0, 0.5, 0.2, 0.1, 0.05],
                                     "horizon": 1.0, "rhs": "-y"})
        coarse, fine = (check_equivalence(_solved(problem, n=n)[1], problem).ic_errors
                        for n in (256, 1024))
        assert len(coarse) == len(fine) == 5
        assert 1.8 <= coarse[4] / fine[4] <= 2.2

    def test_tiny_grid_rejected(self):
        problem = _manufactured()
        _, traj = _solved(problem, n=3)
        with pytest.raises(ValueError):
            initial_limit_checks(problem, traj)
