"""Numerical checks that a computed trajectory actually solves the
problem, plus standalone probes of the identities the solver rests on:

- check_equivalence: residuals of the integral (Volterra) form and of the
  differential form on the same trajectory, and recovery of the initial
  conditions by extrapolated divided differences. A trajectory produced by
  one form must satisfy the other; this is the operational content of the
  equivalence between the two formulations.
- origin_decay: the map t -> I^alpha t^(-g) must decay like t^(alpha - g)
  near 0 with limit 0 whenever g < alpha; the boundary case g = alpha
  degenerates to a constant and is reported with hypothesis_ok False.
- composition_identity: I^alpha applied to the Caputo derivative of a
  polynomial must reproduce the polynomial minus its initial Taylor part.
- initial_limit_checks: each I^(alpha - k) phi must vanish as t -> 0,
  which is what makes the reconstructed y attain its initial data;
  check_equivalence's ic_errors measure whether it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fractional_ops import (
    Grid,
    SampledFunction,
    _finite,
    apply_integral,
    build_integral_operator,
    caputo_derivative,
    ceil_order,
    derivative_taylor_part,
    integral_node_values,
)
from .picard_solver import SolutionTrajectory, rhs_samples
from .problem_model import MultiTermProblem

__all__ = [
    "ResidualReport",
    "check_equivalence",
    "OriginDecayReport",
    "origin_decay",
    "composition_identity",
    "initial_limit_checks",
]


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of one trajectory against both problem forms.

    volterra_residual: sup over all nodes of |y - taylor part - I^alpha f|.
    ode_residual: sup over interior nodes of |D^alpha y - f|, where D^alpha
    is formed by differencing (hence the near-boundary exclusion).
    ic_errors: |recovered y^(k)(0) - b_k| per initial condition. The k = 0
    entry is 0 by construction: y(0) is read as y[0], which solve's
    reconstruction sets to b_0 + 0.0 exactly. Whether I^alpha phi vanishes
    at the origin is initial_limit_checks' first entry (initial_limit_0).
    nodes_skipped: how many nodes the differencing excluded (both ends).
    """

    volterra_residual: float
    ode_residual: float
    ic_errors: tuple
    nodes_skipped: int


def _power_limit(t_pos: np.ndarray, vals: np.ndarray):
    """Extrapolate vals ~ v0 + c t^s to t = 0 from the first, second and
    fourth positive nodes (geometric in index on uniform and graded meshes
    alike). Returns (limit, flat); flat means the increments sit at
    round-off level, in which case the first value is the limit."""
    i1, i2, i4 = float(vals[0]), float(vals[1]), float(vals[3])
    d1, d2 = i2 - i1, i4 - i2
    floor = 1e-10 * max(abs(i1), 1e-30)
    flat = abs(d1) <= floor or abs(d2) <= floor
    if flat or d2 / d1 <= 1.0:
        return i1, flat
    rho = float(t_pos[1] / t_pos[0])
    s = math.log(d2 / d1) / math.log(rho)
    c = d1 / (t_pos[1] ** s - t_pos[0] ** s)
    return float(i1 - c * t_pos[0] ** s), False


def _divided_difference(ts: np.ndarray, ys: np.ndarray) -> float:
    d = np.array(ys, dtype=float)
    ts = np.asarray(ts, dtype=float)
    for level in range(1, len(ts)):
        d = (d[1:] - d[:-1]) / (ts[level:] - ts[:-level])
    return float(d[0])


def _initial_derivative_estimates(t: np.ndarray, y: np.ndarray, n: int) -> tuple:
    """Estimate y^(k)(0), k = 0..n-1, from the first few samples: k-th
    divided difference times k!, improved by Richardson extrapolation
    between stride-1 and stride-2 stencils when enough nodes exist."""
    estimates = []
    for k in range(n):
        if k == 0:
            estimates.append(float(y[0]))
            continue
        e1 = math.factorial(k) * _divided_difference(t[: k + 1], y[: k + 1])
        if 2 * k + 1 <= min(8, len(t)):
            e2 = math.factorial(k) * _divided_difference(t[: 2 * k + 1 : 2], y[: 2 * k + 1 : 2])
            s1 = float(t[k] - t[0])
            s2 = float(t[2 * k] - t[0])
            estimates.append((s2 * e1 - s1 * e2) / (s2 - s1))
        else:
            estimates.append(e1)
    return tuple(estimates)


def check_equivalence(trajectory: SolutionTrajectory, problem: MultiTermProblem) -> ResidualReport:
    """Measure how well the trajectory satisfies the integral form and the
    differential form simultaneously."""
    grid = trajectory.grid
    t = grid.nodes
    n_int = grid.n_intervals
    if n_int < 16:
        raise ValueError("need at least 16 intervals for interior residuals")
    n = problem.n
    b = problem.initial_values

    f_samples = rhs_samples(problem, grid, trajectory.inner)
    outer = build_integral_operator(problem.alpha, grid)
    integral_form = derivative_taylor_part(b, 0.0, grid) + apply_integral(outer, f_samples)
    volterra_residual = float(np.max(np.abs(trajectory.y.values - integral_form.values)))

    deriv = caputo_derivative(trajectory.y, problem.alpha, b)
    skip = max(1, math.ceil(n_int / 32))
    lo, hi = skip, n_int - skip
    mismatch = deriv.values[lo : hi + 1] - f_samples.values[lo : hi + 1]
    ode_residual = float(np.max(np.abs(mismatch)))

    recovered = _initial_derivative_estimates(t, trajectory.y.values, n)
    ic_errors = tuple(abs(r - bk) for r, bk in zip(recovered, b))

    return ResidualReport(
        volterra_residual=volterra_residual,
        ode_residual=ode_residual,
        ic_errors=ic_errors,
        nodes_skipped=2 * skip,
    )


@dataclass(frozen=True)
class OriginDecayReport:
    """Small-t behaviour of I^alpha t^(-gamma) on a grid.

    slope: least-squares log-log slope over the first spatial decade of
    nodes (expected alpha - gamma when gamma < alpha), 0.0 where flat.
    first_value: the value at the first positive node.
    limit_estimate: power-law extrapolation of the t -> +0 value (expected
    0 when gamma < alpha; the degenerate case gamma = alpha yields the
    constant gamma-function ratio instead).
    hypothesis_ok: whether gamma < alpha holds.
    """

    alpha: float
    gamma_exponent: float
    slope: float
    first_value: float
    limit_estimate: float
    hypothesis_ok: bool


def origin_decay(gamma_exponent: float, alpha: float, grid: Grid) -> OriginDecayReport:
    """Probe the decay of I^alpha t^(-gamma) near the origin."""
    g = float(gamma_exponent)
    if not (0.0 <= g < 1.0):
        raise ValueError(f"gamma must lie in [0, 1), got {g}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if grid.n_intervals < 4:
        raise ValueError("need at least 4 intervals to extrapolate the limit")

    t_pos = grid.nodes[1:]
    with np.errstate(over="ignore"):  # t^-g overflows on subnormal nodes: checked below
        f = SampledFunction.from_callable(grid, lambda tt: tt**(-g), g)  # 0.0**-0.0 is 1.0
    _finite(f.values[1:], t_pos, f"t^-{g:g} took")
    op = build_integral_operator(alpha, grid)
    vals = integral_node_values(op, f)

    limit, flat = _power_limit(t_pos, vals)
    slope = 0.0  # a constant sequence, as happens at the boundary gamma = alpha
    if not flat:
        # vals is finite and moves by more than 1e-40 from t_1 to t_2, so at
        # most an underflowed value at t_1 has no finite log
        decade = np.nonzero(t_pos <= 10.0 * t_pos[0] * (1.0 + 1e-12))[0]
        if decade.size < 3:
            decade = np.arange(min(3, t_pos.size))
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(vals[decade]))
        finite = np.isfinite(logs)
        slope = float(np.polyfit(np.log(t_pos[decade][finite]), logs[finite], 1)[0])
    return OriginDecayReport(
        alpha=float(alpha),
        gamma_exponent=g,
        slope=slope,
        first_value=float(vals[0]),
        limit_estimate=limit,
        hypothesis_ok=g < alpha,
    )


def composition_identity(coeffs, alpha: float, grid: Grid) -> float:
    """Defect of I^alpha D^alpha on the polynomial sum_j coeffs[j] t^j:

        max_nodes | I^alpha (D^alpha p) - (p - T_(n-1) p) |.

    The polynomial is sampled through the same accumulation the derivative
    subtracts, so for degree < n the defect cancels exactly (0.0), not just
    to truncation level."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    coeffs = [float(c) for c in coeffs]
    n = ceil_order(alpha)

    b_all = [c * math.factorial(j) for j, c in enumerate(coeffs)]
    b_head = (b_all + [0.0] * n)[:n]

    y = derivative_taylor_part(b_all, 0.0, grid)
    deriv = caputo_derivative(y, alpha, b_head)
    lhs = apply_integral(build_integral_operator(alpha, grid), deriv)
    rhs = y.values - derivative_taylor_part(b_head, 0.0, grid).values
    return float(np.max(np.abs(lhs.values - rhs)))


def initial_limit_checks(problem: MultiTermProblem, trajectory: SolutionTrajectory) -> tuple:
    """Check that the fractional integrals I^(alpha - k) phi vanish as
    t -> 0 for k = 0..n-1, which the initial data need in order to be
    attained. Returns the magnitude of each extrapolated limit, one per
    initial condition; the recovery errors |y^(k)(0) - b_k| are
    ResidualReport.ic_errors."""
    grid = trajectory.grid
    if grid.n_intervals < 4:
        raise ValueError("need at least 4 intervals to extrapolate the limits")
    t_pos = grid.nodes[1:]
    limits = []
    for k in range(problem.n):
        op = build_integral_operator(problem.alpha - k, grid)
        vals = integral_node_values(op, trajectory.phi)
        limits.append(abs(_power_limit(t_pos, vals)[0]))
    return tuple(limits)
