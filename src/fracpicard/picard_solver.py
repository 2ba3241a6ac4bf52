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

The iteration contracts in the weighted norm sup |t^gamma (.)| on [0, T]
when omega = L * sum_h T^(alpha - alpha_h) / gamma(alpha - alpha_h + 1) < 1
for a Lipschitz constant L of f in z. That condition is local: omega grows
with T, and on a long horizon a whole-interval iteration need not converge
at all. So solve marches in windows of at most 64 nodes (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532): each window iterates
with the finished past held fixed, on a horizon short enough to contract,
and a window whose observed ratio of successive updates exceeds 1/2 is
halved. Where f is affine in z, the window's equations are linear, and
an update scales the error of a one-node window by its diagonal rho, so
plain updates would finish the window within max_iter only where
rho^max_iter <= tol. Where every diagonal entry is within that bound,
tol^(1/max_iter), one exact (Newton) step reaches Picard's limit on the
window: the window takes that step once instead of halving, and plain
updates then confirm it to the tolerance. The report still carries omega
beside the observed ratios, but since each window contracts on its own,
omega >= 1 on the whole horizon is no sign of trouble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fractional_ops import (
    Grid,
    SampledFunction,
    apply_integral,
    block_bounds,
    build_integral_operator,
    derivative_taylor_part,
)
from .problem_model import (
    MultiTermProblem,
    compile_rhs,
    eval_rhs,
    estimate_lipschitz,
    rhs_derivatives,
    validate_problem,
)

__all__ = [
    "ContractionWarning",
    "NonFiniteIterateError",
    "ConvergenceReport",
    "SolutionTrajectory",
    "picard_step",
    "rhs_samples",
    "estimate_contraction",
    "solve",
]


class ContractionWarning(UserWarning):
    """No longer raised: the windowed march converges where the
    whole-horizon factor omega is >= 1. Kept so that callers which
    filter it by name still run."""


class NonFiniteIterateError(RuntimeError):
    """An iterate left the finite range (overflow in the right-hand side)."""


@dataclass(frozen=True)
class ConvergenceReport:
    """How the iteration went. A solve runs one or more windows; iterations
    and deltas (the weighted sup-norm updates) are those of the window that
    took the most updates, steps counts the updates of all windows, and
    worst_ratio is the largest ratio of successive updates over all
    windows, halved attempts included in both (0.0 when none took two).
    exact_windows counts the windows that the exact step finished,
    largest_diagonal is the largest max |diag M| of any window that tried
    it (0.0 when none did), and diagonal_bound the largest it takes,
    tol^(1/max_iter)."""

    deltas: tuple
    converged: bool
    iterations: int
    tolerance: float
    lipschitz_estimate: float
    contraction_estimate: float
    windows: int
    worst_ratio: float
    steps: int
    exact_windows: int
    largest_diagonal: float
    diagonal_bound: float


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


def _finite(vals: np.ndarray, t: np.ndarray, what: str = "right-hand side produced") -> np.ndarray:
    if not np.isfinite(vals).all():  # vals: one row or several of samples on t
        t_bad = float(t[np.argmax(~np.isfinite(vals).reshape(-1, t.size).all(axis=0))])
        raise NonFiniteIterateError(f"{what} a non-finite value at t = {t_bad:g}")
    return vals


def rhs_samples(problem: MultiTermProblem, grid: Grid, z_funcs) -> SampledFunction:
    """Evaluate f(t, z) on the grid. When the iterate space is weighted
    (gamma > 0, where f may blow up at the origin) t_0 is skipped and the
    sample there is nan."""
    skip = 1 if problem.gamma > 0.0 else 0
    t = grid.nodes[skip:]
    vals = _finite(eval_rhs(problem.rhs, t, [zf.values[skip:] for zf in z_funcs]), t)
    if skip:
        vals = np.concatenate(([np.nan], vals))
    return SampledFunction(grid, vals, problem.gamma)


def picard_step(rhs, past, near, block, nodes: slice) -> np.ndarray:
    """One update of phi on the window t_lo..t_(hi-1) of one block, not
    checked for finiteness: f(t, z) with z_h = past[h] + block @ near[h].
    rhs is f compiled (compile_rhs) on the nodes it is sampled at (past t_0
    when gamma > 0), nodes the window's slice of them. past[h] is
    derivative_taylor_part(b, alpha_h) plus what the blocks before lo add
    to I^(alpha - alpha_h) phi there (push_history), and near[h] =
    inner[h].near_field(lo, hi, gamma) maps block, phi in the block up to
    t_(hi-1), to the rest."""
    return rhs(nodes, [p + block @ m for p, m in zip(past, near)])


def estimate_contraction(lipschitz: float, problem: MultiTermProblem) -> float:
    """A priori contraction factor of one update in the weighted norm:

        omega = L * sum_h T^(alpha - alpha_h) / gamma(alpha - alpha_h + 1).

    omega < 1 guarantees geometric convergence with ratio omega; inf
    where the bound overflows a double."""
    try:
        total = sum(problem.horizon ** (problem.alpha - a) / math.gamma(problem.alpha - a + 1.0)
                    for a in problem.derivative_orders)
    except OverflowError:
        return math.inf
    return float(lipschitz) * total


def _observed_lipschitz(problem: MultiTermProblem, grid: Grid, z_funcs) -> float:
    """Empirical Lipschitz constant of the right-hand side over the box the
    iterates actually visited (widened 10 percent)."""
    box = []
    for zf in z_funcs:
        lo = float(np.min(zf.values))
        hi = float(np.max(zf.values))
        pad = 0.1 * (hi - lo) + 1e-6
        box.append((lo - pad, hi + pad))
    t_lo = float(grid.nodes[1]) if problem.gamma > 0.0 else 0.0
    return estimate_lipschitz(problem.rhs, (t_lo, grid.horizon), box)


_START_DEGREE = 5  # of the polynomial a window starts from


@lru_cache(maxsize=None)
def _window_start(width: int) -> np.ndarray:
    """E with E @ (f(-dw), ..., f(-w), f(0)) the polynomial of degree d =
    _START_DEGREE through those values at 1..w nodes past 0, w = width."""
    past = np.vander(np.arange(-_START_DEGREE, 1.0), _START_DEGREE + 1)
    start = np.vander(np.arange(1, width + 1) / width, _START_DEGREE + 1) @ np.linalg.inv(past)
    start.flags.writeable = False  # shared by every caller
    return start


def _affine_slopes(problem: MultiTermProblem, t: np.ndarray):
    """df/dz_h on the nodes t, one array per inner derivative, where f is
    affine in z; () where it is not."""
    trees = rhs_derivatives(problem.rhs, problem.m)
    return () if trees is None else [compile_rhs(d, t)(slice(None), ()) for d in trees]


def _exact_step(slopes, near, r: int, nodes: slice, res: np.ndarray, bound: float):
    """max |diag M| and delta with (I - M) delta = res, the update's change,
    where M = sum_h diag(df/dz_h) near[h][r:].T is the derivative of a
    window's update by its own values (rows r.. of each near field): for f
    affine in z, the iterate before that update plus delta is the window's
    fixed point. delta is None where max |diag M| > bound, above which plain
    updates would not finish the window even on one node, or where the step
    is not finite."""
    m = sum(s[nodes, None] * block[r:].T for s, block in zip(slopes, near))
    diagonal = float(np.abs(m.diagonal()).max())
    if diagonal > bound:
        return diagonal, None
    try:
        step = np.linalg.solve(np.eye(len(m)) - m, res)
    except np.linalg.LinAlgError:
        return diagonal, None
    return diagonal, step if np.isfinite(step).all() else None


def _march(problem: MultiTermProblem, grid: Grid, inner, taylor, tol: float, max_iter: int,
           bound: float):
    """phi, the deltas of every window solved, in order, the largest ratio
    of successive updates and the number of updates over all windows,
    halved ones included, the number of windows the exact step finished
    and the largest diagonal of any window that tried it.

    phi^0 = f(t, taylor parts). The windows lie in the blocks of t_1..t_N
    (block_bounds). A window w nodes long starts from the quintic through
    the last final value and those w, 2w, .., 5w nodes before it (the line
    through the last two while t_0, or t_1 for gamma > 0, is nearer; the
    first from phi^0) and iterates until its update is at most tol. One
    whose update shrinks by less than half in a step starts again at half
    its length, down to one node (two for the first when gamma > 0, whose
    t_0 value is extrapolated from t_1 and t_2), and so do the windows after
    it. Once per window, the exact step may stand in for the halving: where
    f is affine in z (its slopes from rhs_derivatives, taken the first
    time a window would halve) and _exact_step accepts the window, whose
    diagonal must be at most bound, tol^(1/max_iter) (on one node an
    update scales the error by the diagonal rho, so max_iter updates reach
    tol only where rho^max_iter <= tol), the iterate before that update
    moves to the window's fixed point and the updates go on. The next one
    is at round-off level; should it too shrink by less than half, the
    window halves after all. After each window the operators push the
    history it completes. A window that runs out of iterations ends the
    march."""
    g = problem.gamma
    skip = 1 if g > 0.0 else 0
    t = grid.nodes
    n = grid.n_intervals
    rhs = compile_rhs(problem.rhs, t[skip:])
    values = np.full(n + 1, np.nan)
    values[skip:] = _finite(rhs(slice(None), [tp.values[skip:] for tp in taylor]), t[skip:])
    hist = [op.history(values[0], g) for op in inner]
    slopes = None  # df/dz_h, from the first window that would halve
    lo, size = 1, n
    done, worst, steps, exact_windows, largest = [], 0.0, 0, 0, 0.0
    while lo <= n:
        a, end = block_bounds(lo, n)
        hi = min(lo + size, end)
        w, least = hi - lo, 1 + (skip and lo == 1)
        cur = values[lo:hi]
        if lo > _START_DEGREE * w + skip:
            cur[:] = _window_start(w) @ values[lo - 1 - _START_DEGREE * w : lo : w]
        elif lo > 1 + skip:  # the line through the last two values
            cur[:] = values[lo - 1] + (values[lo - 1] - values[lo - 2]) * np.arange(1, w + 1)
        near = [op.near_field(lo, hi, g) for op in inner]
        past = [h[lo:hi] + tp.values[lo:hi] for h, tp in zip(hist, taylor)]
        block, nodes = values[a:hi], slice(lo - skip, hi - skip)
        deltas, tried, exact = [], False, False
        for _ in range(max_iter):
            new = picard_step(rhs, past, near, block, nodes)
            res = new - cur
            deltas.append(float(np.abs(res * t[lo:hi] ** g if g else res).max()))
            if not math.isfinite(deltas[-1]):  # max propagates nan and inf
                _finite(new, t[lo:hi])
            cur[:] = new
            if len(deltas) > 1:
                worst = max(worst, deltas[-1] / deltas[-2])
            if deltas[-1] <= tol:
                break
            if w > least and len(deltas) > 1 and deltas[-1] > 0.5 * deltas[-2]:
                if not tried:  # once per window: the exact step, where f allows it
                    tried = True
                    if slopes is None:
                        slopes = _affine_slopes(problem, t[skip:])
                    diagonal, step = (_exact_step(slopes, near, lo - a, nodes, res, bound)
                                      if slopes else (0.0, None))
                    largest = max(largest, diagonal)
                    if step is not None:
                        cur += step - res  # the iterate before new, plus the step
                        exact = True
                        continue
                size = max(w // 2, least)
                break
        steps += len(deltas)
        if w > size:
            continue  # halved: run the window again, shorter
        done.append(deltas)
        exact_windows += exact
        if deltas[-1] > tol:
            break  # out of iterations
        lo = hi
        if lo <= n:
            for op, h in zip(inner, hist):
                op.push_history(h, values, lo, g)
    return SampledFunction(grid, values, g), done, worst, steps, exact_windows, largest


def solve(
    problem: MultiTermProblem,
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolutionTrajectory:
    """Iterate phi <- picard_step(phi), window by window, until the
    weighted update norm drops to tol or a window exhausts max_iter;
    reconstruct y = taylor part + I^alpha phi.

    An exhausted iteration budget returns a trajectory whose report has
    converged False; its worst_ratio, and largest_diagonal against
    diagonal_bound, show why.
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
    bound = tol ** (1.0 / max_iter)  # the largest diagonal plain updates finish
    phi, windows, worst_ratio, steps, exact_windows, largest_diagonal = _march(
        problem, grid, inner, taylor, tol, max_iter, bound)

    z_final = tuple(apply_integral(op, phi) + tp for op, tp in zip(inner, taylor))
    if orders and orders[-1] == 0.0:  # inner[-1] is I^alpha: this entry already is y
        y = z_final[-1]
    else:
        taylor_0 = derivative_taylor_part(problem.initial_values, 0.0, grid)
        y = taylor_0 + apply_integral(build_integral_operator(problem.alpha, grid), phi)
    # the weights of a high order on a long horizon can overflow where phi does not
    _finite(np.array([y.values, *(z.values for z in z_final)]), grid.nodes,
            "y or an inner derivative took")

    try:
        lipschitz = _observed_lipschitz(problem, grid, z_final)
    except ArithmeticError:
        lipschitz = float("nan")

    deltas = max(windows, key=len)
    report = ConvergenceReport(
        deltas=tuple(deltas), converged=windows[-1][-1] <= tol, iterations=len(deltas),
        tolerance=tol, lipschitz_estimate=lipschitz,
        contraction_estimate=estimate_contraction(lipschitz, problem),
        windows=len(windows), worst_ratio=worst_ratio, steps=steps, exact_windows=exact_windows,
        largest_diagonal=largest_diagonal, diagonal_bound=bound,
    )
    return SolutionTrajectory(grid=grid, y=y, inner=z_final, phi=phi, report=report)
