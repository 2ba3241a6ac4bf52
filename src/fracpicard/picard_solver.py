"""Successive-approximation solver for multi-term problems.

The problem is first rewritten in integral form. With phi = D^alpha y the
equation turns into a fixed-point problem for phi alone:

    z_h = I^(alpha - alpha_h) phi + sum_(j >= n_h) b_j t^(j - alpha_h) / gamma(j + 1 - alpha_h)
    phi <- f(t, z_1, ..., z_m),

where n_h = ceil(alpha_h). Every step therefore applies smoothing
fractional integrals to the current iterate; no numerical differentiation
appears anywhere in the loop, whose only state is phi. The solution is
reconstructed at the end as y = sum_j b_j t^j / j! + I^alpha phi, which is
the last inner derivative z_m when alpha_m = 0 (I^alpha is then not built).

The iteration contracts in the weighted norm sup |t^gamma (.)| whenever
omega = L * sum_h T^(alpha - alpha_h) / gamma(alpha - alpha_h + 1) < 1 for
a Lipschitz constant L of f in z. The solver keeps iterating even when its
empirical omega estimate is >= 1 (a ContractionWarning is emitted): on a
finite horizon the Volterra structure still forces convergence, just
without the a priori geometric rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fractional_ops import (
    Grid,
    SampledFunction,
    apply_integral,
    build_integral_operator,
    ceil_order,
    polynomial_from_derivatives,
    weighted_norm,
)
from .problem_model import (
    MultiTermProblem,
    eval_rhs,
    estimate_lipschitz,
    validate_problem,
)

__all__ = [
    "ContractionWarning",
    "NonFiniteIterateError",
    "ConvergenceReport",
    "SolutionTrajectory",
    "derivative_taylor_part",
    "picard_step",
    "rhs_samples",
    "estimate_contraction",
    "solve",
]


class ContractionWarning(UserWarning):
    """The estimated contraction factor is >= 1; convergence is not
    geometric and may be slow."""


class NonFiniteIterateError(RuntimeError):
    """An iterate left the finite range (overflow in the right-hand side)."""


@dataclass(frozen=True)
class ConvergenceReport:
    deltas: tuple
    converged: bool
    iterations: int
    tolerance: float
    lipschitz_estimate: float
    contraction_estimate: float


@dataclass(frozen=True)
class SolutionTrajectory:
    """Solver output: y on the grid, the inner derivatives z, the final
    iterate phi (approximating D^alpha y, possibly singular at 0), and the
    convergence report."""

    grid: Grid
    y: SampledFunction
    inner: tuple
    phi: SampledFunction
    report: ConvergenceReport


def derivative_taylor_part(initial_values, alpha_h: float, grid: Grid) -> SampledFunction:
    """Caputo derivative of order alpha_h of the initial polynomial:

        sum_(j = n_h)^(n-1) b_j t^(j - alpha_h) / gamma(j + 1 - alpha_h),

    with n_h = ceil(alpha_h); the first n_h terms are annihilated. For
    alpha_h = 0 this is the polynomial sum_j b_j t^j / j! carrying the
    initial data itself."""
    if alpha_h < 0.0:
        raise ValueError(f"derivative order must be >= 0, got {alpha_h}")
    t = grid.nodes
    if alpha_h == 0.0:
        return SampledFunction(grid, polynomial_from_derivatives(initial_values, t), 0.0)
    n_h = ceil_order(alpha_h)
    vals = np.zeros_like(t)
    for j in range(n_h, len(initial_values)):
        bj = float(initial_values[j])
        vals = vals + (bj / math.gamma(j + 1.0 - alpha_h)) * t ** (j - alpha_h)
    return SampledFunction(grid, vals, 0.0)


def rhs_samples(problem: MultiTermProblem, grid: Grid, z_funcs) -> SampledFunction:
    """Evaluate f(t, z) on the grid. When the iterate space is weighted
    (gamma > 0, where f may blow up at the origin) t_0 is skipped and the
    sample there is nan."""
    skip = 1 if problem.gamma > 0.0 else 0
    t = grid.nodes[skip:]
    vals = eval_rhs(problem.rhs, t, [zf.values[skip:] for zf in z_funcs])
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = ~np.isfinite(vals)
        t_bad = float(t[np.argmax(bad)])
        raise NonFiniteIterateError(
            f"right-hand side produced a non-finite value at t = {t_bad:g}"
        )
    if skip:
        vals = np.concatenate(([np.nan], vals))
    return SampledFunction(grid, vals, problem.gamma)


def _inner_derivatives(phi: SampledFunction, inner, taylor) -> tuple:
    """z_h = I^(alpha - alpha_h) phi + taylor_h for every inner order."""
    return tuple(apply_integral(op, phi) + tp for op, tp in zip(inner, taylor))


def picard_step(
    phi: SampledFunction, problem: MultiTermProblem, inner, taylor
) -> SampledFunction:
    """One update phi -> f(t, inner[h] phi + taylor[h]), with inner[h] =
    I^(alpha - alpha_h) and taylor[h] = derivative_taylor_part(b, alpha_h)."""
    return rhs_samples(problem, phi.grid, _inner_derivatives(phi, inner, taylor))


def estimate_contraction(lipschitz: float, problem: MultiTermProblem, horizon=None) -> float:
    """A priori contraction factor of one update in the weighted norm:

        omega = L * sum_h T^(alpha - alpha_h) / gamma(alpha - alpha_h + 1).

    omega < 1 guarantees geometric convergence with ratio omega."""
    t_end = problem.horizon if horizon is None else float(horizon)
    total = 0.0
    for a in problem.derivative_orders:
        mu = problem.alpha - a
        total += t_end**mu / math.gamma(mu + 1.0)
    return float(lipschitz) * total


def _observed_lipschitz(problem: MultiTermProblem, grid: Grid, z_funcs) -> float:
    """Empirical Lipschitz constant of the right-hand side over the box the
    iterates actually visited (widened 10 percent)."""
    if problem.m == 0:
        return 0.0
    box = []
    for zf in z_funcs:
        lo = float(np.min(zf.values))
        hi = float(np.max(zf.values))
        pad = 0.1 * (hi - lo) + 1e-6
        box.append((lo - pad, hi + pad))
    t_lo = float(grid.nodes[1]) if problem.gamma > 0.0 else 0.0
    return estimate_lipschitz(problem.rhs, (t_lo, grid.horizon), box, seed=0)


def solve(
    problem: MultiTermProblem,
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolutionTrajectory:
    """Iterate phi <- picard_step(phi) from phi^0 = f(t, taylor parts) until
    the weighted update norm drops to tol or max_iter is exhausted;
    reconstruct y = taylor part + I^alpha phi.

    A non-contractive setup only warns (ContractionWarning); an exhausted
    iteration budget returns a trajectory whose report has converged False.
    """
    validate_problem(problem)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if abs(grid.horizon - problem.horizon) > 1e-12 * max(problem.horizon, 1.0):
        raise ValueError(
            f"grid horizon {grid.horizon:g} does not match problem horizon "
            f"{problem.horizon:g}"
        )
    orders = problem.derivative_orders
    inner = tuple(build_integral_operator(problem.alpha - a, grid) for a in orders)
    taylor = tuple(derivative_taylor_part(problem.initial_values, a, grid) for a in orders)
    phi = rhs_samples(problem, grid, taylor)
    deltas = []
    for _ in range(max_iter):
        phi_new = picard_step(phi, problem, inner, taylor)
        deltas.append(weighted_norm(phi_new - phi, problem.gamma))
        phi = phi_new
        if deltas[-1] <= tol:
            break

    z_final = _inner_derivatives(phi, inner, taylor)
    if orders and orders[-1] == 0.0:
        # inner[-1] is I^alpha and taylor[-1] the initial polynomial, so
        # this entry already is y
        y = z_final[-1]
    else:
        taylor_0 = derivative_taylor_part(problem.initial_values, 0.0, grid)
        y = taylor_0 + apply_integral(build_integral_operator(problem.alpha, grid), phi)

    try:
        lipschitz = _observed_lipschitz(problem, grid, z_final)
    except ArithmeticError:
        lipschitz = float("nan")
    omega = estimate_contraction(lipschitz, problem)
    if omega >= 1.0:
        warnings.warn(
            f"estimated contraction factor {omega:.3g} >= 1; convergence may be slow",
            ContractionWarning,
            stacklevel=2,
        )

    report = ConvergenceReport(
        deltas=tuple(deltas),
        converged=deltas[-1] <= tol,
        iterations=len(deltas),
        tolerance=tol,
        lipschitz_estimate=lipschitz,
        contraction_estimate=omega,
    )
    return SolutionTrajectory(grid=grid, y=y, inner=z_final, phi=phi, report=report)
