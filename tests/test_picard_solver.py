"""Fixed-point solver tests.

The iteration's load-bearing identity, the one that lets every step work
on phi = D^alpha y with integrals only, is

    D^(a_h)[ P(t) + I^a phi ] = I^(a - a_h) phi
        + sum_(j = n_h)^(n-1) b_j t^(j - a_h) / gamma(j + 1 - a_h),

with P the initial polynomial. TestReductionIdentity verifies it
symbolically (sympy) from the integral definition of the derivative, for a
spread of outer/inner order combinations, before anything numeric is
trusted. The iterate tests then compare against hand-derived closed forms
of the Picard sequence for the half-order relaxation problem.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import erfcx

from fracpicard import fractional_ops, picard_solver
from fracpicard.fractional_ops import (
    FracIntegralOperator,
    Grid,
    SampledFunction,
    apply_integral,
    block_bounds,
    build_integral_operator,
    derivative_taylor_part,
    integral_node_values,
)
from fracpicard.picard_solver import (
    NonFiniteIterateError,
    _START_DEGREE,
    _Dense,
    _Toeplitz,
    _observed_lipschitz,
    _toeplitz_inverse,
    _window_start,
    estimate_contraction,
    picard_step,
    rhs_samples,
    solve,
)
from fracpicard.problem_model import (
    ProblemValidationError,
    RhsDomainError,
    compile_rhs,
    eval_rhs,
    parse_rhs,
    problem_from_dict,
)


def _relaxation(horizon: float = 1.0, rate: float = 1.0):
    return problem_from_dict({
        "alpha": 0.5,
        "derivative_orders": [0.0],
        "initial_values": [1.0],
        "horizon": horizon,
        "rhs": "-z1" if rate == 1.0 else f"-{rate!r}*z1",
    })


def _uniform_relax_0():
    """Problem 0 of the benchmark's uniform_relax set at seed 1, D^a y =
    D^a y* + lam (y* - y), and (b, c, p) of its solution y* = b + c t^p."""
    a, lam, b = 0.558308767229092, -1.6851852446941527, 0.9411250050655583
    c, p = 1.1932884943021687, 1.8184759124244025
    kd = c * math.gamma(p + 1.0) / math.gamma(p + 1.0 - a)
    return problem_from_dict({
        "alpha": a, "derivative_orders": [0.0], "initial_values": [b],
        "horizon": 1.0, "rhs": f"{kd!r}*t^{p - a!r} + {lam!r}*({b!r} + {c!r}*t^{p!r} - z1)",
    }), (b, c, p)


def _high_order(alpha: float, horizon: float):
    n = math.ceil(alpha)
    return problem_from_dict({
        "alpha": alpha, "derivative_orders": [0.0], "initial_values": [1.0] + [0.0] * (n - 1),
        "horizon": horizon, "rhs": "t",
    })


def _forward_substitution(rate: float, grid) -> np.ndarray:
    """y of D^1/2 y = -rate y, y(0) = 1, from the discrete equations, which
    are lower triangular: forward substitution solves them exactly."""
    op = build_integral_operator(0.5, grid)
    unit = np.eye(2, grid.nodes.size)
    boundary, first = (apply_integral(op, SampledFunction(grid, e)).values for e in unit)
    stencil = first[1:]  # stencil[k] weights phi_j at node j + k
    phi = np.empty(grid.nodes.size)
    phi[0] = -rate
    for k in range(1, phi.size):
        past = boundary[k] * phi[0] + stencil[k - 1 : 0 : -1] @ phi[1:k]
        phi[k] = -rate * (past + 1.0) / (1.0 + rate * stencil[0])
    return apply_integral(op, SampledFunction(grid, phi)).values + 1.0


def _whole_step(phi, inner, taylor, rhs):
    """The update of a regular phi at every node, each operator applied
    whole: the reference for the march's window updates."""
    z = [apply_integral(op, phi).values + tp.values for op, tp in zip(inner, taylor)]
    return rhs(slice(None), z)


def _first_window(phi, win, taylor, hi):
    """(z, nodes) of the window t_1..t_(hi-1), hi <= 65, of a regular phi
    and the window steps of one inner operator, formed as the march's
    windows form it: past + block @ near."""
    near = win.near_field(1, hi)
    past = win.history(phi.values[0])[1:hi] + taylor[0].values[1:hi]
    return [past + phi.values[hi - near.shape[0] : hi] @ near], slice(1, hi)


class TestReductionIdentity:
    CASES = [
        # (alpha, alpha_h, mu, bs) as exact rationals p/q
        ((1, 2), (0, 1), (0, 1), (1,)),
        ((3, 2), (1, 2), (1, 2), (2, 3)),
        ((3, 2), (1, 1), (0, 1), (1, -1)),
        ((5, 2), (3, 2), (1, 1), (1, 2, 3)),
        ((2, 1), (1, 2), (1, 2), (1, 1)),
        ((7, 4), (3, 4), (1, 4), (0, 2)),
    ]

    @pytest.mark.parametrize("alpha_pq,ah_pq,mu_pq,bs", CASES)
    def test_symbolic(self, alpha_pq, ah_pq, mu_pq, bs):
        sympy = pytest.importorskip("sympy")
        t, tau = sympy.symbols("t tau", positive=True)
        alpha = sympy.Rational(*alpha_pq)
        a_h = sympy.Rational(*ah_pq)
        mu = sympy.Rational(*mu_pq)
        n = int(sympy.ceiling(alpha))
        n_h = int(sympy.ceiling(a_h))

        def frac_integral(order, expr):
            if order == 0:
                return expr
            kernel = (t - tau) ** (order - 1) * expr.subs(t, tau)
            return sympy.integrate(kernel, (tau, 0, t)) / sympy.gamma(order)

        def caputo(order, expr):
            if order == 0:
                return expr
            k = int(sympy.ceiling(order))
            inner = sympy.diff(expr, t, k)
            if order == k:
                return inner
            return frac_integral(k - order, inner)

        poly = sum(sympy.Integer(b) * t**j / sympy.factorial(j) for j, b in enumerate(bs))
        lhs = caputo(a_h, poly + frac_integral(alpha, t**mu))
        rhs = frac_integral(alpha - a_h, t**mu) + sum(
            sympy.Integer(bs[j]) * t ** (j - a_h) / sympy.gamma(j + 1 - a_h)
            for j in range(n_h, n)
        )
        assert sympy.simplify(lhs - rhs) == 0


class TestTaylorParts:
    def test_taylor_part_factorial_series(self):
        grid = Grid.uniform(2.0, 16)
        b = (1.0, -1.0, 4.0)
        tp = derivative_taylor_part(b, 0.0, grid)
        t = grid.nodes
        expected = 1.0 - t + 2.0 * t**2
        assert np.allclose(tp.values, expected, rtol=1e-14)

    def test_derivative_taylor_part_hand_formula(self):
        grid = Grid.uniform(1.0, 16)
        b = (1.0, 2.0, 3.0)
        a_h = 0.5
        out = derivative_taylor_part(b, a_h, grid)
        t = grid.nodes
        expected = (
            2.0 / math.gamma(2.5 - 1.0) * t**0.5
            + 3.0 / math.gamma(3.5 - 1.0) * t**1.5
        )
        assert np.allclose(out.values, expected, rtol=1e-13, atol=1e-15)

    def test_full_order_annihilates(self):
        grid = Grid.uniform(1.0, 16)
        out = derivative_taylor_part((1.0, 2.0), 1.5, grid)
        assert np.max(np.abs(out.values)) == 0.0

    def test_zero_coefficients_skip_an_overflowing_power(self):
        # t^(61 - 1/2) overflows a double at t = 1e6; 0 * inf is nan
        grid = Grid.uniform(1e6, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = derivative_taylor_part([1.0, 2.0] + [0.0] * 60, 0.5, grid)
        assert np.array_equal(out.values, 2.0 / math.gamma(1.5) * grid.nodes**0.5)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            derivative_taylor_part((1.0,), -0.5, Grid.uniform(1.0, 8))


class TestIterates:
    def test_closed_form_picard_sequence(self):
        # for D^(1/2) y = -y, y(0) = 1, the iterates are the partial sums
        # phi_k = -sum_(j<=k) (-sqrt t)^j / gamma(j/2 + 1)
        problem = _relaxation()
        grid = Grid.uniform(1.0, 512)
        inner = (build_integral_operator(0.5, grid),)
        taylor = (derivative_taylor_part(problem.initial_values, 0.0, grid),)
        t = grid.nodes
        rhs = compile_rhs(problem.rhs, t)
        phi = rhs_samples(problem, grid, taylor)
        for k in range(6):
            expected = -sum(
                (-np.sqrt(t)) ** j / math.gamma(j / 2.0 + 1.0) for j in range(k + 1)
            )
            assert np.max(np.abs(phi.values - expected)) < 1e-3
            phi = SampledFunction(grid, _whole_step(phi, inner, taylor, rhs))

    def test_delta_sequence_closed_form(self):
        # || phi_(k+1) - phi_k || on [0, tau] in one window that does not
        # halve: deltas[i] = tau^((i + 1)/2) / gamma((i + 1)/2 + 1)
        tau = 0.25
        traj = solve(_relaxation(tau), Grid.uniform(tau, 64), tol=1e-8)
        assert traj.report.windows == 1
        for i in range(6):
            expected = tau ** ((i + 1) / 2.0) / math.gamma((i + 1) / 2.0 + 1.0)
            assert traj.report.deltas[i] == pytest.approx(expected, rel=1e-2)

    def test_state_z_consistent_with_previous_phi(self):
        # phi_1 = f(t, z) with z = I^(1/2) phi_0 + 1, and f = -z1
        problem = _relaxation()
        grid = Grid.uniform(1.0, 64)
        inner = (build_integral_operator(0.5, grid),)
        taylor = (derivative_taylor_part(problem.initial_values, 0.0, grid),)
        phi0 = rhs_samples(problem, grid, taylor)
        rhs = compile_rhs(problem.rhs, grid.nodes)
        # N = 64: the first window of the march is the whole grid past t_0
        phi1 = picard_step(rhs, *_first_window(phi0, inner[0].window(), taylor, 65))
        expected_z = apply_integral(inner[0], phi0).values + 1.0
        assert np.allclose(phi1, -expected_z[1:], rtol=1e-14)
        # a shorter window of the same block gets the same values
        assert np.allclose(picard_step(rhs, *_first_window(phi0, inner[0].window(), taylor, 9)),
                           phi1[:8], rtol=1e-14, atol=0.0)


class TestContractionEstimate:
    def test_frozen_half_order_quarter_horizon(self):
        problem = _relaxation(horizon=0.25)
        omega = estimate_contraction(1.0, problem)
        assert omega == pytest.approx(0.564189583547756, abs=1e-12)
        assert omega == pytest.approx(0.25**0.5 / math.gamma(1.5), rel=1e-13)

    def test_no_inner_terms_means_zero(self):
        p = problem_from_dict({
            "alpha": 1.5, "derivative_orders": [], "initial_values": [0.0, 0.0],
            "horizon": 1.0, "rhs": "t",
        })
        assert estimate_contraction(10.0, p) == 0.0

    def test_multi_term_hand_formula(self):
        p = problem_from_dict({
            "alpha": 1.5, "derivative_orders": [0.5, 0.0], "initial_values": [1.0, 0.0],
            "horizon": 2.0, "rhs": "z1+z2",
        })
        expected = 3.0 * (
            2.0**1.0 / math.gamma(2.0) + 2.0**1.5 / math.gamma(2.5)
        )
        assert estimate_contraction(3.0, p) == pytest.approx(expected, rel=1e-13)

    def test_horizon_override(self):
        problem = _relaxation(horizon=0.25)
        shorter = estimate_contraction(1.0, problem)
        assert shorter == pytest.approx(0.564189583547756, abs=1e-12)

    def test_overflowing_bound_is_inf(self):
        # T^(alpha - alpha_h) overflows a double: 1e6^60.5
        p = _high_order(60.5, 1e6)
        assert estimate_contraction(1.0, p) == math.inf


class TestSolve:
    def test_contractive_case_quiet_and_converged(self):
        problem = _relaxation(horizon=0.25)
        grid = Grid.uniform(0.25, 128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve(problem, grid)
        assert traj.report.converged
        assert traj.report.contraction_estimate < 1.0
        assert traj.report.iterations == len(traj.report.deltas)

    def test_noncontractive_case_converges_quietly(self):
        # omega > 1 on the whole horizon, yet every window contracts
        problem = _relaxation(horizon=1.0)
        grid = Grid.uniform(1.0, 128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve(problem, grid)
        assert traj.report.converged
        assert traj.report.contraction_estimate > 1.0

    def test_budget_exhaustion_flagged_not_raised(self):
        problem = _relaxation(horizon=1.0)
        grid = Grid.uniform(1.0, 64)
        traj = solve(problem, grid, max_iter=2)
        assert not traj.report.converged
        assert traj.report.iterations == 2
        assert len(traj.report.deltas) == 2

    def test_initial_value_attained_exactly(self):
        problem = _relaxation()
        grid = Grid.uniform(1.0, 64)
        traj = solve(problem, grid)
        assert traj.y.values[0] == 1.0

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve(_relaxation(horizon=1.0), Grid.uniform(2.0, 64))

    def test_parameter_validation(self, monkeypatch):
        problem = _relaxation()
        grid = Grid.uniform(1.0, 64)
        with pytest.raises(ValueError):
            solve(problem, grid, tol=0.0)
        with pytest.raises(ValueError):
            solve(problem, grid, max_iter=0)
        # max_iter is checked as an integer before any operator is built; numpy's pass
        built = _count_calls(monkeypatch, "build_integral_operator")
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            solve(problem, grid, max_iter=2.5)
        assert built == {"build_integral_operator": 0}
        assert solve(problem, grid, max_iter=np.int64(200)).report.converged

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tol_must_be_finite_and_positive(self, tol):
        # an infinite tol would stop after one update and report convergence
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve(_relaxation(), Grid.uniform(1.0, 64), tol=tol)

    def test_singular_forcing_closed_form(self):
        # D^0.5 y = t^(-0.3): phi is the forcing itself, so y has the
        # closed form 1 + gamma(0.7)/gamma(1.2) t^0.2 and one step converges
        p = problem_from_dict({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 1.0, "gamma": 0.3, "rhs": "t^(-0.3) + 0*z1",
        })
        grid = Grid.uniform(1.0, 256)
        traj = solve(p, grid)
        assert traj.report.converged
        # the first window starts from phi itself, the later ones from an
        # extrapolation, which one step replaces by phi
        delta, last = traj.report.deltas
        assert delta > 0.0 and last == 0.0
        assert traj.phi.singular_exponent == 0.3
        t = grid.nodes
        exact = 1.0 + math.gamma(0.7) / math.gamma(1.2) * t**0.2
        assert np.max(np.abs(traj.y.values - exact)) < 1e-12

    @pytest.mark.parametrize("grading", [1.0, 2.0])
    def test_no_inner_derivatives(self, grading):
        # D^1.5 y = t with zero initial data and no inner derivatives: f
        # does not depend on z, so every window converges by its second
        # update, and y = I^1.5 t, on which the product trapezoid rule is exact
        p = problem_from_dict({
            "alpha": 1.5, "derivative_orders": [], "initial_values": [0.0, 0.0],
            "horizon": 1.0, "rhs": "t",
        })
        grid = Grid(1.0, 256, grading)
        traj = solve(p, grid)
        assert traj.report.converged and traj.report.windows >= 4
        assert traj.inner == ()
        exact = grid.nodes**2.5 / math.gamma(3.5)
        assert np.max(np.abs(traj.y.values - exact)) < 1e-14

    @pytest.mark.parametrize("alpha,orders,rhs,builds", [
        (0.5, [0.0], "-z1", 1),
        (1.5, [0.5, 0.0], "-z2 - 0.1*z1", 2),
        (1.5, [0.5], "-z1", 2),
    ], ids=["relaxation", "order_zero_tail", "no_order_zero"])
    def test_one_operator_per_order(self, monkeypatch, alpha, orders, rhs, builds):
        # one I^(alpha - alpha_h) per inner order, and I^alpha only when the
        # last inner order is not 0 (otherwise it is the last inner operator)
        p = problem_from_dict({
            "alpha": alpha, "derivative_orders": orders,
            "initial_values": [1.0] * math.ceil(alpha), "horizon": 1.0, "rhs": rhs,
        })
        count = []
        init = FracIntegralOperator.__init__

        def counting_init(self, *args, **kwargs):
            count.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FracIntegralOperator, "__init__", counting_init)
        solve(p, Grid.uniform(1.0, 32))
        assert len(count) == builds

    def test_inner_singularity_guard(self):
        # gamma is in range for alpha = 1, but alpha - alpha_1 <= gamma would
        # make the inner derivative singular; validation refuses the problem
        with pytest.raises(ProblemValidationError) as exc:
            problem_from_dict({
                "alpha": 1.0, "derivative_orders": [0.95], "initial_values": [1.0],
                "horizon": 1.0, "gamma": 0.9, "rhs": "z1",
            })
        assert [code for code, _ in exc.value.issues] == ["inner_singular"]
        assert "singular" in str(exc.value)

    def test_overflow_aborts_with_clear_error(self):
        for rhs in ("exp(z1)", "z1^400"):  # each overflows to inf, not an error
            p = problem_from_dict({
                "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [800.0],
                "horizon": 1.0, "rhs": rhs,
            })
            with pytest.raises(NonFiniteIterateError):
                solve(p, Grid.uniform(1.0, 64))

    @pytest.mark.parametrize("alpha, horizon", [(60.5, 1e6), (150.5, 1000.0)])
    def test_overflowing_operator_aborts(self, alpha, horizon):
        # phi = t is finite, but the weights of I^alpha overflow from t_8 on,
        # so y would be nan there
        with pytest.raises(
            NonFiniteIterateError, match=f"non-finite value at t = {horizon / 8:g}$"
        ):
            solve(_high_order(alpha, horizon), Grid.uniform(horizon, 64))

    @pytest.mark.parametrize("spec, n, max_iter, converged", [
        # iterates that grow to 4e253 stay finite, but f's values on the
        # Lipschitz box overflow and their differences are inf - inf
        ({"alpha": 1.5, "initial_values": [50.0, 0.0], "horizon": 2.0, "rhs": "z1^2"}, 32, 8,
         False),
        ({"rhs": "-4*z1^3"}, 16, 3, False),  # the product itself overflows
        # only the top of the box overflows exp, so a difference reads inf
        ({"initial_values": [672.0], "rhs": "1e-300*exp(z1) - z1"}, 64, 200, True),
    ])
    def test_overflow_on_the_lipschitz_box_reads_nan(self, spec, n, max_iter, converged):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(_problem(**spec), Grid.uniform(spec.get("horizon", 1.0), n),
                           max_iter=max_iter).report
        assert report.converged == converged
        assert math.isnan(report.lipschitz_estimate)

    def test_two_inner_terms(self):
        p = problem_from_dict({
            "alpha": 1.5, "derivative_orders": [0.5, 0.0], "initial_values": [1.0, 0.0],
            "horizon": 1.0, "rhs": "-z2 - 0.1*z1",
        })
        grid = Grid.uniform(1.0, 256)
        traj = solve(p, grid)
        assert traj.report.converged
        assert len(traj.inner) == 2
        assert traj.y.values[0] == 1.0
        assert np.all(np.isfinite(traj.y.values))

    def test_y_reconstruction_matches_order_zero_inner(self):
        # when the last inner order is 0, z_m is y itself, bit for bit
        problem = _relaxation()
        grid = Grid.uniform(1.0, 64)
        traj = solve(problem, grid)
        assert np.array_equal(traj.y.values, traj.inner[0].values)


def _segment_windows(n: int) -> int:
    """The windows of a solve whose segments all confirm: the first block,
    then aligned segments of 64, 128 and 256 nodes from t_65 on."""
    lo, windows = min(n, 64) + 1, 1
    while lo <= n:
        lo += min((lo - 1) & (1 - lo), 256, n + 1 - lo)
        windows += 1
    return windows


class TestWindows:
    """Every solve marches in windows of at most 64 nodes, on uniform,
    graded and weighted grids alike; a constant-slope solve on a uniform
    grid takes segments of up to 256 nodes after its first block."""

    @pytest.mark.parametrize("horizon,error", [(20.0, 2.65e-3), (50.0, 6.22e-3)])
    def test_long_horizon_reaches_the_discretisation_error(self, horizon, error):
        # a whole-interval iteration stalls here: its iterates pass through
        # cancelling partial sums of the Mittag-Leffler series E_1/2. The
        # first 64-node window would halve, and f is affine with a diagonal
        # below 1/2, so it ends with the exact step instead; so does every
        # segment after it
        grid = Grid.uniform(horizon, 1024)
        traj = solve(_relaxation(horizon), grid, tol=1e-10)
        assert traj.report.converged
        assert traj.report.exact_windows == traj.report.windows == _segment_windows(1024) == 6
        assert traj.report.worst_ratio > 0.5  # where a window would halve
        sup = np.max(np.abs(traj.y.values - erfcx(np.sqrt(grid.nodes))))
        assert sup <= 1.1 * error

    @pytest.mark.parametrize("n", (1024, 1000))
    def test_agrees_with_the_whole_interval_fixed_point(self, n):
        # D^a y = D^a y* + lam (y* - y), y* = b + c t^p, as in the benchmark;
        # at N = 1000 the last block and the last pushes are cut short
        a, p, b, c, lam = 0.7, 1.6, 1.1, 0.9, -1.5
        kd = c * math.gamma(p + 1.0) / math.gamma(p + 1.0 - a)
        problem = problem_from_dict({
            "alpha": a, "derivative_orders": [0.0], "initial_values": [b],
            "horizon": 1.0, "rhs": f"{kd!r}*t^{p - a!r} + {lam!r}*({b!r} + {c!r}*t^{p!r} - z1)",
        })
        grid = Grid.uniform(1.0, n)
        traj = solve(problem, grid, tol=1e-12)
        assert traj.report.windows == _segment_windows(n) == 6
        op = build_integral_operator(a, grid)
        phi = np.zeros(grid.nodes.size)
        for _ in range(200):
            z = apply_integral(op, SampledFunction(grid, phi)).values + b
            phi, old = eval_rhs(problem.rhs, grid.nodes, [z]), phi
            if np.max(np.abs(phi - old)) <= 1e-14:
                break
        y = apply_integral(op, SampledFunction(grid, phi)).values + b
        assert np.max(np.abs(traj.y.values - y)) <= 1e-9
        assert np.max(np.abs(traj.y.values - (b + c * grid.nodes**p))) < 1e-3

    def test_stiff_windows_are_solved_exactly(self):
        # lam = 10 does not contract on 64 nodes: the first window would
        # halve. f is affine and the diagonal, 10 h^1/2 / gamma(5/2) = 0.235,
        # is below 1/2, so the exact step finishes it instead, and every
        # segment after it is solved in one product
        rate, grid = 10.0, Grid.uniform(1.0, 1024)
        traj = solve(_relaxation(rate=rate), grid, tol=1e-12)
        assert traj.report.converged
        assert traj.report.exact_windows == traj.report.windows == _segment_windows(1024)
        assert traj.report.worst_ratio > 0.5
        y = _forward_substitution(rate, grid)
        assert np.max(np.abs(traj.y.values - y)) <= 1e-10
        assert np.max(np.abs(y - erfcx(rate * np.sqrt(grid.nodes)))) < 1.5e-2

    @pytest.mark.parametrize("rhs", ["-9*z1 + 0.01*z1^2", "-9*sin(z1)"])
    def test_windows_halve_where_the_exact_step_is_refused(self, rhs):
        # neither is affine in z, so the windows halve as they did before
        # the exact step existed
        grid = Grid.uniform(1.0, 64)
        problem = dataclasses.replace(_relaxation(), rhs=parse_rhs(rhs, 1))
        traj = solve(problem, grid, tol=1e-12)
        assert traj.report.converged and traj.report.exact_windows == 0
        assert traj.report.windows > 1 and traj.report.worst_ratio > 0.5

    def test_exact_step_takes_diagonals_up_to_the_budget_bound(self):
        # at N = 64 the diagonal of -9 z1, 9 h^1/2 / gamma(5/2) = 0.85, is
        # above 1/2 but within (1e-12)^(1/200) = 0.87: the one window ends
        # with the exact step instead of halving to one node
        grid = Grid.uniform(1.0, 64)
        traj = solve(_relaxation(rate=9.0), grid, tol=1e-12)
        assert traj.report.converged and traj.report.exact_windows == 1
        assert traj.report.largest_diagonal == pytest.approx(9.0 / 8.0 / math.gamma(2.5))
        assert np.max(np.abs(traj.y.values - _forward_substitution(9.0, grid))) <= 1e-10

    @pytest.mark.parametrize("rate,diagonal", [(5.0, 0.94), (9.0, 1.69)])
    def test_windows_above_the_bound_halve_and_fail(self, rate, diagonal):
        # at N = 16 these diagonals are above 0.89, the bound at the default
        # tol and max_iter: plain updates cannot finish even one node, and
        # the exact step, which would rescue them, is not taken
        traj = solve(_relaxation(rate=rate), Grid.uniform(1.0, 16))
        assert not traj.report.converged and traj.report.exact_windows == 0
        assert traj.report.steps == 208
        assert traj.report.largest_diagonal == pytest.approx(diagonal, abs=5e-3)

    def test_the_bound_follows_the_iteration_budget(self):
        # with max_iter = 100 the bound is (1e-10)^(1/100) = 0.79, below
        # the 0.85 diagonal of -9 z1 at N = 64, which then halves and fails
        traj = solve(_relaxation(rate=9.0), Grid.uniform(1.0, 64), max_iter=100)
        assert not traj.report.converged and traj.report.exact_windows == 0
        assert traj.report.steps == 112
        assert traj.report.diagonal_bound == 1e-10 ** (1.0 / 100)

    @pytest.mark.parametrize("width", (1, 7, 64))
    def test_window_start_reproduces_its_degree(self, width):
        # the starting iterate of a window: the polynomial of degree d
        # through the values 0, w, ..., dw nodes before its first node
        d = _START_DEGREE
        t = 0.3 + 1e-3 * np.arange((d + 1) * width + 1)
        y = np.polyval([2.3, -1.1, 0.6, 4.1, 0.7, -2.0, 1.3][-d - 1 :], t)
        start = _window_start(width) @ y[: d * width + 1 : width]
        assert np.allclose(start, y[d * width + 1 :], rtol=1e-13, atol=0.0)

    def test_window_step_is_the_whole_grid_step(self):
        # the march's update of windows inside the plan's first two blocks,
        # from the pushed history, the near field and a view of the block,
        # is the whole-grid update there up to the order of the sums
        problem, grid = _relaxation(), Grid.uniform(1.0, 1024)
        op = build_integral_operator(0.5, grid)
        taylor = (derivative_taylor_part(problem.initial_values, 0.0, grid),)
        rhs = compile_rhs(problem.rhs, grid.nodes)
        phi = SampledFunction(grid, np.cos(3.0 * grid.nodes))
        whole = _whole_step(phi, (op,), taylor, rhs)
        plan = op.window()
        hist, lo = plan.history(phi.values[0]), 1
        for hi in (30, 65, 100, 129):
            near = plan.near_field(lo, hi)
            past = hist[lo:hi] + taylor[0].values[lo:hi]
            z = past + phi.values[hi - near.shape[0] : hi] @ near
            got = picard_step(rhs, [z], slice(lo, hi))
            assert np.allclose(got, whole[lo:hi], rtol=1e-14, atol=0.0)
            lo = hi
            if lo == block_bounds(lo, grid.n_intervals)[0]:  # pushed at block starts only
                plan.push(hist, phi.values, range(lo, lo + 1))

    def test_window_start_cuts_the_updates(self):
        # a varying slope takes no segment: each of the 128 windows of D^1/2 y
        # = -(1 + t) y, N = 8192, after the first starts from the quintic
        # through earlier values, which took 332 updates, where the line
        # through the last two of those values took 792; an update count is
        # deterministic, so the bound is the quintic's with 10 % headroom.
        # (Problem 0 of the benchmark's uniform_relax set, which this measured
        # until constant-slope solves took segments, took 772 updates from
        # the line, 474 from the cubic and 275 from the quintic.)
        problem = problem_from_dict({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 1.0, "rhs": "-(1+t)*z1",
        })
        traj = solve(problem, Grid.uniform(1.0, 8192))
        assert traj.report.converged and traj.report.windows == 128
        assert traj.report.steps <= 365

    def test_non_finite_update_names_its_node(self):
        # phi^0 is finite; the march overflows in a later window
        p = problem_from_dict({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 2.0, "rhs": "exp(z1)",
        })
        with pytest.raises(NonFiniteIterateError, match=r"at t = 0\.0371094$"):
            solve(p, Grid.uniform(2.0, 1024))

    def test_weighted_solve_marches(self):
        # gamma > 0 marches through the dense weighted tables, not the plan
        p = problem_from_dict({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 1.0, "gamma": 0.3, "rhs": "t^(-0.3) + 0*z1",
        })
        grid = Grid.uniform(1.0, 1024)
        traj = solve(p, grid)
        assert traj.report.converged and traj.report.windows == 1024 // 64
        exact = 1.0 + math.gamma(0.7) / math.gamma(1.2) * grid.nodes**0.2
        assert np.max(np.abs(traj.y.values - exact)) < 1e-12

    @pytest.mark.parametrize("rate, errors", [
        (5.0, (3.7e-2, 2.1e-2, 1.2e-2, 6.2e-3)),
        (7.0, (6.0e-2, 3.6e-2, 2.1e-2, 1.1e-2)),
        (9.0, (8.3e-2, 5.2e-2, 3.1e-2, 1.8e-2)),
    ])
    def test_short_grids_reach_the_discretisation_error(self, rate, errors):
        # D^1/2 y = -lam y, T = 1: iterated on the whole interval, none of
        # these solves converges within 200 updates, and at lam = 7 and 9
        # they end 1e10 to 1e35 away from y = erfcx(lam sqrt(t))
        for n, error in zip((64, 128, 256, 512), errors):
            grid = Grid.uniform(1.0, n)
            traj = solve(_relaxation(rate=rate), grid)
            assert traj.report.converged and traj.report.windows >= _segment_windows(n)
            sup = np.max(np.abs(traj.y.values - erfcx(rate * np.sqrt(grid.nodes))))
            assert sup <= 1.1 * error

    def test_exhausted_window_ends_the_solve(self):
        grid = Grid.uniform(1.0, 1024)
        traj = solve(_relaxation(), grid, max_iter=3)
        assert not traj.report.converged
        assert traj.report.iterations == 3
        assert len(traj.report.deltas) == 3
        assert traj.report.deltas[-1] > traj.report.tolerance
        assert traj.report.windows == 1

    def test_one_window_report(self):
        # at most 64 intervals are one block, and this window does not halve
        traj = solve(_relaxation(0.25), Grid.uniform(0.25, 64), tol=1e-8)
        d = traj.report.deltas
        assert traj.report.windows == 1
        assert traj.report.iterations == len(d)
        assert traj.report.worst_ratio == max(b / a for a, b in zip(d, d[1:]))


def _count_calls(monkeypatch, *names):
    """{name: calls} of the named picard_solver functions, classes and
    methods ("_Dense.exact"), counted from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        *cls, attr = name.split(".")
        owner = getattr(picard_solver, cls[0]) if cls else picard_solver

        def counted(*args, fn=getattr(owner, attr), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, attr, counted)
    return calls


def _recorded_windows(monkeypatch) -> list:
    """The (deltas, ended, diagonal) of every window and segment the
    marches record from now on."""
    calls = []

    def recorded(*args, fn=picard_solver._march):
        march = fn(*args)
        calls.extend(march[1])
        return march

    monkeypatch.setattr(picard_solver, "_march", recorded)
    return calls


def _problem(rhs: str, **spec):
    return problem_from_dict({"alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
                              "horizon": 1.0, "rhs": rhs, **spec})


class TestInnerFromHistory:
    """solve closes the history its march pushed into each z: it applies no
    inner operator again, and a march that runs out of iterations pushes
    the start values past its last window too."""

    @pytest.mark.parametrize("spec, grading", [
        ({"rhs": "-z1"}, 1.0),
        ({"rhs": "-9*sin(z1)"}, 2.0),
        ({"rhs": "t^(-0.3) - z1", "gamma": 0.3}, 1.0),
        ({"alpha": 1.5, "derivative_orders": [0.5, 0.0], "initial_values": [1.0, 0.0],
          "rhs": "-z2 - 0.1*z1"}, 1.0),
    ])
    def test_order_zero_solve_applies_no_operator(self, monkeypatch, spec, grading):
        calls = []
        for module, name in ((picard_solver, "apply_integral"),
                             (fractional_ops, "apply_integral"),
                             (fractional_ops, "integral_node_values")):
            def counted(*args, fn=getattr(module, name), name=name):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(module, name, counted)
        traj = solve(_problem(**spec), Grid(1.0, 256, grading))
        assert traj.report.converged
        assert calls == []

    @pytest.mark.parametrize("spec, grading", [
        ({"rhs": "-9*sin(z1)"}, 1.0),
        ({"rhs": "-9*sin(z1)"}, 2.0),
        ({"rhs": "t^(-0.3) - 9*sin(z1)", "gamma": 0.3}, 1.0),
    ])
    def test_unconverged_inner_is_the_apply_to_phi(self, spec, grading):
        problem = _problem(**spec)
        grid = Grid(1.0, 256, grading)
        traj = solve(problem, grid, max_iter=3)
        assert not traj.report.converged
        assert traj.report.windows == 1  # stopped in the first of four blocks
        for a, z in zip(problem.derivative_orders, traj.inner):
            op = build_integral_operator(problem.alpha - a, grid)
            ref = derivative_taylor_part(problem.initial_values, a, grid).values
            ref[1:] += integral_node_values(op, traj.phi)
            assert np.max(np.abs(z.values - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestKinds:
    """solve picks one kind of stretch for its march, once: plain Picard
    where f is not affine in z, a dense exact step on tables or with
    slopes that vary, and the Toeplitz step where every slope is constant
    on plans, with segments where its column is not refused."""

    @pytest.mark.parametrize("problem, grid, kind, segments", [
        (_problem("-9*sin(z1)"), Grid.uniform(1.0, 64), "_Picard", False),
        (_problem("-(5+5*t)*z1"), Grid.uniform(1.0, 64), "_Dense", False),
        (_problem("-10*z1"), Grid(1.0, 256, 2.0), "_Dense", False),
        (_problem("t^(-0.3) - 5*z1", gamma=0.3), Grid.uniform(1.0, 256), "_Dense", False),
        (_problem("-z1"), Grid.uniform(1.0, 1024), "_Toeplitz", True),
        (_relaxation(rate=30.0), Grid.uniform(1.0, 256), "_Toeplitz", False),  # diagonal 1.41
    ])
    def test_each_solve_picks_one_kind(self, monkeypatch, problem, grid, kind, segments):
        cls = getattr(picard_solver, kind)
        made = _count_calls(monkeypatch, "_Picard", "_Dense", "_Toeplitz")
        kinds = []

        def marched(*args, fn=picard_solver._march):
            kinds.append(args[-1])
            return fn(*args)

        monkeypatch.setattr(picard_solver, "_march", marched)
        solve(problem, grid)
        assert made == {name: int(name == kind) for name in made}
        assert [type(k) for k in kinds] == [cls] and kinds[0].segments == segments

    def test_a_singular_window_takes_no_exact_step(self):
        # slope 1 on the near field [[0.5, 0.5], [0.5, 0.5]]: max |diag M| =
        # 0.5 is within the bound, but I - M is exactly singular
        t = np.linspace(0.0, 1.0, 3)
        kind = _Dense(None, t, 0.0, [np.ones(3)], (), 1e-10, 200)  # bound 0.891
        near = [np.full((2, 2), 0.5)]
        assert kind.exact(near, 0, slice(0, 2), np.array([1.0, -1.0])) == (0.5, None)


class TestToeplitzStep:
    """With constant slopes on a uniform grid and gamma = 0, every window's
    M is a leading block of one lower-triangular Toeplitz M_W, W = 256 (or
    N), and its exact step a convolution with the leading part of the
    first column c of (I - M_W)^-1. Past the march's first block, which
    iterates plain Picard from phi^0, the march solves segments of up to W
    nodes, each in one product with c."""

    @pytest.mark.parametrize("n, slopes, orders, width", [
        *((4096, (-10.0,), (0.5,), w) for w in (1, 2, 16, 64)),
        *((16, (-2.0,), (0.5,), w) for w in (1, 2, 16)),  # a zero-padded plan block
        *((4096, (-4.0, -9.0), (1.0, 1.5), w) for w in (1, 2, 16, 64)),
    ])
    def test_leading_block_inverts_the_window(self, n, slopes, orders, width):
        grid = Grid.uniform(1.0, n)
        plans = [build_integral_operator(order, grid).window() for order in orders]
        constant = [np.broadcast_to(s, n + 1) for s in slopes]
        diagonal, c = _toeplitz_inverse(constant, plans, 0.891)
        full = min(256, n)
        m_w = sum(s * toeplitz(plan.stencil[:full], np.zeros(full))
                  for s, plan in zip(slopes, plans))
        assert np.array_equal(m_w[:64, :64], sum(s * plan.near_field(1, 1 + min(n, 64)).T
                                                 for s, plan in zip(slopes, plans)))
        inv = np.linalg.inv(np.eye(full) - m_w)
        assert diagonal == np.abs(m_w.diagonal()).max()
        assert np.max(np.abs(c - inv[:, 0])) <= 1e-13 * np.max(np.abs(inv[:, 0]))
        # the step of the window that ends a block in the middle of the grid
        kind = _Toeplitz(None, grid.nodes, 0.0, constant, plans, 1e-10, 200)  # bound 0.891
        a, end = block_bounds(n // 2, n)
        lo = end - width
        res = np.random.default_rng(width).normal(size=width)
        near = [plan.near_field(lo, end) for plan in plans]
        got_diagonal, delta = kind.exact(near, lo - a, slice(lo, end), res)
        ref = inv[:width, :width] @ res
        assert kind.diagonal == got_diagonal == diagonal and kind.segments
        assert np.max(np.abs(delta - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_the_column_holds_no_square_array(self):
        # the inverse of a 256-node segment is held as its first column: its
        # build peaks below one 64 x 64 array of floats
        grid = Grid.uniform(1.0, 4096)
        # the plans a march has made before its first step
        plans = [build_integral_operator(order, grid).window() for order in (1.0, 1.5)]
        slopes = [np.broadcast_to(s, 4097) for s in (-4.0, -9.0)]
        tracemalloc.start()
        try:
            _, c = _toeplitz_inverse(slopes, plans, 0.891)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.shape == (256,) and peak < 64 * 64 * 8

    def test_windows_after_the_first_step_after_one_update(self, monkeypatch):
        # D^1/2 y = -y on T = 5: the first window iterates plain Picard from
        # phi^0, contracting at ratios of at most 0.67; every segment after
        # it is solved in one product and takes a single, confirming update
        calls = _recorded_windows(monkeypatch)
        report = solve(_relaxation(horizon=5.0), Grid.uniform(5.0, 4096)).report
        (first, ended, _), *rest = calls
        assert report.converged and ended == "plain" and len(first) > 2
        assert all(b <= 0.67 * a for a, b in zip(first, first[1:]))
        assert len(calls) == report.windows == _segment_windows(4096) == 18
        assert report.exact_windows == len(rest)
        assert report.steps == len(first) + len(rest)

    @pytest.mark.parametrize("rate, n, tol, steps, diagonal, error", [
        (10.0, 4096, 1e-10, 20, 0.11753949657244922, 3.2730046242419597e-3),
        (9.0, 64, 1e-12, 3, 0.8462843753216344, 8.325552192224595e-2),
    ])
    def test_one_inverse_serves_every_window(self, monkeypatch, rate, n, tol, steps, diagonal,
                                             error):
        # the exact windows and largest diagonal of a solve of each window's
        # own system, from one inverse column; at N = 4096 the first window
        # takes 3 updates and each of the 17 segments after it one
        calls = _count_calls(monkeypatch, "_Dense.exact", "_toeplitz_inverse")
        grid = Grid.uniform(1.0, n)
        traj = solve(_relaxation(rate=rate), grid, tol=tol)
        report = traj.report
        assert calls == {"_Dense.exact": 0, "_toeplitz_inverse": 1}  # no window's own solve
        assert report.converged and report.steps == steps
        assert report.exact_windows == report.windows == _segment_windows(n)
        assert report.largest_diagonal == diagonal
        sup = np.max(np.abs(traj.y.values - erfcx(rate * np.sqrt(grid.nodes))))
        assert sup == pytest.approx(error, rel=1e-9)

    @pytest.mark.parametrize("problem, grid", [
        (_problem("-(5+5*t)*z1"), Grid.uniform(1.0, 64)),  # slopes that vary
        (_problem("-10*z1"), Grid(1.0, 256, 2.0)),
        (_problem("t^(-0.3) - 5*z1", gamma=0.3), Grid.uniform(1.0, 256)),
    ])
    def test_other_solves_solve_each_window(self, monkeypatch, problem, grid):
        calls = _count_calls(monkeypatch, "_Dense.exact", "_toeplitz_inverse")
        report = solve(problem, grid).report
        assert report.converged and report.exact_windows > 0
        assert calls["_Dense.exact"] >= report.exact_windows and calls["_toeplitz_inverse"] == 0

    def test_a_refused_diagonal_is_remembered(self, monkeypatch):
        # every window of -9 z1 at N = 16 would halve and is refused, down
        # to one node; the diagonal is computed once
        calls = _count_calls(monkeypatch, "_Dense.exact", "_toeplitz_inverse")
        report = solve(_relaxation(rate=9.0), Grid.uniform(1.0, 16)).report
        assert calls == {"_Dense.exact": 0, "_toeplitz_inverse": 1}
        assert not report.converged and report.exact_windows == 0
        assert f"{report.largest_diagonal:.3g} > {report.diagonal_bound:.3g}" == "1.69 > 0.891"


class TestSegments:
    """Past its first block, a solve with constant slopes on a uniform grid
    and gamma = 0 takes aligned segments of 64, 128, then 256 nodes, each
    solved in one product and confirmed by one update; a segment whose
    update misses tol runs again in windows."""

    @pytest.mark.parametrize("n", (1000, 1024, 8192, 8229))  # 1000, 8229: the last cut short
    @pytest.mark.parametrize("problem", [
        _relaxation(),
        _problem("-2*z2 - 0.5*z1 + t", alpha=1.5, derivative_orders=[0.5, 0.0],
                 initial_values=[1.0, 0.3], horizon=2.0),
    ])
    def test_inner_is_the_apply_to_phi(self, problem, n):
        # a segment's own share stands in for its pushes and its close
        grid = Grid.uniform(problem.horizon, n)
        traj = solve(problem, grid)
        assert traj.report.converged and traj.report.windows == _segment_windows(n)
        for a, z in zip(problem.derivative_orders, traj.inner):
            ref = derivative_taylor_part(problem.initial_values, a, grid).values
            ref[1:] += integral_node_values(build_integral_operator(problem.alpha - a, grid),
                                            traj.phi)
            assert np.max(np.abs(z.values - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("problem, n", [
        (_relaxation(), 8192),
        (_problem("5*z1", horizon=4.0), 256),  # segments that miss tol, and windows
        (_problem("-2*z2 - 0.5*z1 + t", alpha=1.5, derivative_orders=[0.5, 0.0],
                  initial_values=[1.0, 0.3], horizon=2.0), 1000),
    ])
    def test_every_update_is_a_picard_step(self, monkeypatch, problem, n):
        # bench/layers.py counts the picard_step calls as the updates
        calls = _count_calls(monkeypatch, "picard_step", "_Toeplitz.segment")
        report = solve(problem, Grid.uniform(problem.horizon, n)).report
        assert report.converged and calls["_Toeplitz.segment"] > 0
        assert calls["picard_step"] == report.steps

    @pytest.mark.parametrize("n", (256, 4096))
    @pytest.mark.parametrize("rate, horizon", [(3.0, 6.0), (5.0, 4.0)])
    def test_large_solutions_converge_in_windows(self, monkeypatch, rate, horizon, n):
        # y grows to 1e23 and 1e44, and no update falls below a few ulp of
        # it: segments miss tol = 1e-10 and run again in windows, which
        # halve down to nodes that land on a floating-point fixed point
        calls = _recorded_windows(monkeypatch)
        grid = Grid.uniform(horizon, n)
        traj = solve(_problem(f"{rate!r}*z1", horizon=horizon), grid)
        assert traj.report.converged
        assert any(len(d) == 1 and d[0] > 1e-10 and e == "halved" for d, e, _ in calls)
        y = _forward_substitution(-rate, grid)
        assert np.max(np.abs(traj.y.values - y)) <= 1e-12 * np.max(np.abs(y))

    def test_a_refused_diagonal_takes_no_segment(self, monkeypatch):
        # -30 y at N = 256 has diagonal 1.41: no c, no segment, and the
        # windows halve and fail as before
        calls = _count_calls(monkeypatch, "_Toeplitz.segment")
        report = solve(_relaxation(rate=30.0), Grid.uniform(1.0, 256)).report
        assert not report.converged and calls["_Toeplitz.segment"] == 0
        assert f"{report.largest_diagonal:.3g} > {report.diagonal_bound:.3g}" == "1.41 > 0.891"

    def test_a_non_finite_confirming_update_raises(self, monkeypatch):
        # D^1 y = 1000 y: y = e^(1000 t) nears the end of the float range
        # inside the segment t_513..t_768, whose confirming update is the
        # first value that is not finite
        calls = _count_calls(monkeypatch, "_Toeplitz.segment")
        with pytest.raises(NonFiniteIterateError, match="at t = ") as exc:
            solve(_problem("1000*z1", alpha=1.0), Grid.uniform(1.0, 1024))
        assert 0.5 <= float(str(exc.value).rsplit("= ", 1)[1]) <= 0.75
        assert calls["_Toeplitz.segment"] > 0
        assert "segment" in [entry.name for entry in exc.traceback]

    def test_segments_hold_no_more_memory(self):
        # the same solve with a Toeplitz step per 64-node window peaked at
        # 914,674 B (tracemalloc, numpy 2.4, Python 3.11)
        problem, _ = _uniform_relax_0()
        solve(problem, Grid.uniform(1.0, 8192))  # compiles and caches once
        grid = Grid.uniform(1.0, 8192)
        tracemalloc.start()
        try:
            solve(problem, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 914_674


class TestLipschitzEstimate:
    """Where every df/dz_h is constant, the report's L is max_h |df/dz_h|,
    the sharp constant in the L1 norm on z that estimate_lipschitz samples;
    elsewhere it is sampled."""

    @pytest.mark.parametrize("spec, lipschitz", [
        ({"rhs": "-z1"}, 1.0),
        ({"rhs": "2*z1 + 3*z2", "alpha": 1.5, "derivative_orders": [0.5, 0.0],
          "initial_values": [1.0, 0.0]}, 3.0),  # not 2 + 3
        ({"rhs": "0*z1 + t"}, 0.0),
    ])
    def test_constant_slopes_are_read_off(self, monkeypatch, spec, lipschitz):
        calls = _count_calls(monkeypatch, "estimate_lipschitz")
        traj = solve(_problem(**spec), Grid.uniform(1.0, 64))
        assert traj.report.lipschitz_estimate == lipschitz and calls["estimate_lipschitz"] == 0

    @pytest.mark.parametrize("rhs, lipschitz", [
        ("-(5+5*t)*z1", 9.986049678946058),
        ("sin(20*t)*z1", 0.9999983720409569),
        ("-z1^3", 3.1844890984851117),
    ])
    def test_other_slopes_are_sampled(self, rhs, lipschitz):
        # the values sampled before the slopes were read; on the sine, the
        # largest slope on the nodes alone would read below the sample
        grid = Grid.uniform(1.0, 64)
        traj = solve(_problem(rhs), grid)
        assert traj.report.lipschitz_estimate == lipschitz
        assert lipschitz == _observed_lipschitz(_problem(rhs), grid, traj.inner)
        if rhs.startswith("sin"):
            assert np.abs(np.sin(20.0 * grid.nodes)).max() < lipschitz


    def test_a_domain_error_on_the_box_reads_nan(self):
        # D^1 y = -sqrt(y), y(0) = 1, T = 1.9: y = (1 - t/2)^2 falls to
        # 0.0025, so the sampled box, widened by 10 %, reaches below 0, where
        # sqrt raises; the solve still returns its trajectory
        problem = _problem("-sqrt(z1)", alpha=1.0, horizon=1.9)
        grid = Grid.uniform(1.9, 256)
        traj = solve(problem, grid)
        with pytest.raises(RhsDomainError):
            _observed_lipschitz(problem, grid, traj.inner)
        assert traj.report.converged
        assert math.isnan(traj.report.lipschitz_estimate)
        assert math.isnan(traj.report.contraction_estimate)
        assert np.max(np.abs(traj.y.values - (1.0 - grid.nodes / 2.0) ** 2)) <= 1e-10


class TestReportFromWindows:
    """Every report field is read off the march's record of its windows
    and segments:
    halved attempts count in steps, worst_ratio and largest_diagonal, not
    in windows and exact_windows, and deltas are the first longest window
    that completed."""

    @pytest.mark.parametrize("rhs, n, max_iter, endings", [
        ("-9*z1", 64, 200, {"exact"}),  # the step from the Toeplitz inverse
        ("-(5+5*t)*z1", 4096, 200, {"plain", "exact"}),  # one solve per window
        ("-9*sin(z1)", 64, 200, {"plain", "halved"}),  # no exact step
        ("-z1", 1024, 3, {"plain"}),  # out of iterations
    ])
    def test_fields_follow_the_windows(self, monkeypatch, rhs, n, max_iter, endings):
        calls = _recorded_windows(monkeypatch)
        report = solve(_problem(rhs), Grid.uniform(1.0, n), max_iter=max_iter).report
        assert {ended for _, ended, _ in calls} == endings
        done = [(deltas, ended) for deltas, ended, _ in calls if ended != "halved"]
        ratios = [b / a for deltas, _, _ in calls for a, b in zip(deltas, deltas[1:])]
        assert report.steps == sum(len(deltas) for deltas, _, _ in calls)
        assert report.worst_ratio == max(ratios, default=0.0)
        assert report.windows == len(done)
        assert report.exact_windows == sum(ended == "exact" for _, ended in done)
        assert report.largest_diagonal == max(diagonal for _, _, diagonal in calls)
        longest = max(len(deltas) for deltas, _ in done)
        assert report.deltas == tuple(next(d for d, _ in done if len(d) == longest))
        assert report.iterations == longest
        assert report.converged == (done[-1][0][-1] <= report.tolerance) == (max_iter > 3)
        if "halved" in endings:  # the halved attempts do count where they should
            assert report.steps > sum(len(deltas) for deltas, _ in done)
            assert report.worst_ratio > max(b / a for d, _ in done for a, b in zip(d, d[1:]))
