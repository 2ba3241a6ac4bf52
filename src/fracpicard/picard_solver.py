"""Successive-approximation solver for multi-term problems.

The problem is first rewritten in integral form. With phi = D^alpha y the
equation turns into a fixed-point problem for phi alone:

    z_h = I^(alpha - alpha_h) phi + sum_(j >= n_h) b_j t^(j - alpha_h) / gamma(j + 1 - alpha_h)
    phi <- f(t, z_1, ..., z_m),

where n_h = ceil(alpha_h). Every step therefore applies smoothing
fractional integrals to the current iterate; no numerical differentiation
appears anywhere in the loop, whose only state is phi. Each z_h at the end
closes the history the march pushed, and y = sum_j b_j t^j / j! + I^alpha
phi is the last of them when alpha_m = 0 (I^alpha is then not built).

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
updates then confirm it to the tolerance. With constant slopes on a
uniform grid every window's step comes from one Toeplitz inverse per
solve (_exact_steps). The report still carries omega beside the observed
ratios, but since each window contracts on its own, omega >= 1 on the
whole horizon is no sign of trouble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fractional_ops import (
    Grid,
    NonFiniteIterateError,
    SampledFunction,
    _finite,
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
    tol^(1/max_iter). lipschitz_estimate is L of f in z, in the L1 norm on
    z: max_h |df/dz_h| where every slope is constant on the nodes, else
    sampled by estimate_lipschitz over the box the final inner derivatives
    visit (nan where f fails or overflows there); contraction_estimate is
    omega from it (estimate_contraction)."""

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


def _toeplitz_inverse(slopes, inner, n: int, bound: float):
    """max |diag M_W| and (I - M_W)^-1, None where _exact_step refuses M_W,
    for M_W = sum_h s_h near_field(1, 1 + W).T, the M of a whole block of
    W nodes on a uniform grid of n intervals where every slope s_h is
    constant. M_W is lower-triangular Toeplitz, and so is its inverse:
    Inv[i, j] = c[i - j], with (I - M_W) c = e_1."""
    width = block_bounds(1, n)[1] - 1
    near = [op.near_field(1, 1 + width) for op in inner]
    diagonal, c = _exact_step(slopes, near, 0, slice(0, width), np.eye(width, 1)[:, 0], bound)
    i = np.arange(width)
    return diagonal, None if c is None else np.tril(c[i[:, None] - i])


def _exact_steps(slopes, constant: bool, inner, grid: Grid, g: float, bound: float):
    """The exact step of a solve's windows, step(near, r, nodes, res) ->
    (max |diag M|, delta or None) as _exact_step gives it; None where f is
    not affine in z.

    Where every slope is constant on a uniform grid and g = 0, each near
    field is a slice of one Toeplitz plan block, so a window w nodes wide
    has M = M_W[:w, :w] wherever it lies. The inverse of a leading block of
    a lower-triangular matrix is the leading block of its inverse: the
    first window that tries the step computes max |diag M_W| and, where
    that is within bound, (I - M_W)^-1 (_toeplitz_inverse), and every step
    is then one product with its leading w x w block. Varying slopes,
    graded grids and g > 0 solve each window's own system."""
    if not slopes:
        return None
    if not (constant and grid.is_uniform and g == 0.0):
        return lambda near, r, nodes, res: _exact_step(slopes, near, r, nodes, res, bound)
    toeplitz = None

    def step(near, r, nodes, res):
        nonlocal toeplitz
        if toeplitz is None:
            toeplitz = _toeplitz_inverse(slopes, inner, grid.n_intervals, bound)
        diagonal, inv = toeplitz
        if inv is None:
            return diagonal, None
        delta = inv[: res.size, : res.size] @ res
        return diagonal, delta if np.isfinite(delta).all() else None

    return step


def _window(update, cur: np.ndarray, t: np.ndarray, weight, tol: float, max_iter: int,
            halve: bool, exact):
    """Iterate one window until its update is at most tol or max_iter
    updates are spent: its deltas, how it ended, "plain", "exact" or
    "halved", and max |diag M| of its exact step (0.0 where it tried none).

    update() is the window's next iterate, cur its current one (a view of
    phi's values, moved in place), t its nodes and weight t^gamma there
    (None for gamma = 0), which the deltas carry. Where halve holds and an
    update shrinks by less than half, the window halves. The first time,
    exact(res) may stand in for that: where it gives the step, the iterate
    before that update moves to the window's fixed point, and the updates
    go on. The next one is at round-off level; should it too shrink by less
    than half, the window halves after all."""
    deltas, ended, diagonal = [], "plain", 0.0
    for _ in range(max_iter):
        new = update()
        res = new - cur
        deltas.append(float(np.abs(res if weight is None else res * weight).max()))
        if not math.isfinite(deltas[-1]):  # max propagates nan and inf
            _finite(new, t)
        cur[:] = new
        if deltas[-1] <= tol:
            break
        if halve and len(deltas) > 1 and deltas[-1] > 0.5 * deltas[-2]:
            if ended == "plain" and exact is not None:  # once per window
                diagonal, step = exact(res)
                if step is not None:
                    cur += step - res  # the iterate before new, plus the step
                    ended = "exact"
                    continue
            return deltas, "halved", diagonal
    return deltas, ended, diagonal


def _march(problem: MultiTermProblem, grid: Grid, inner, taylor, rhs, exact, tol: float,
           max_iter: int):
    """phi, the march's record, the (deltas, ended, diagonal) of every
    _window call in order, halved attempts included, and each hist.

    phi^0 = f(t, taylor parts), with rhs f compiled on the nodes it is
    sampled at. The windows lie in the blocks of t_1..t_N (block_bounds).
    A window w nodes long starts from the quintic through the last final
    value and those w, 2w, .., 5w nodes before it (the line through the
    last two while t_0, or t_1 for gamma > 0, is nearer; the first from
    phi^0) and iterates (_window), where exact, from _exact_steps, may
    stand in for its halving once. One that halves starts again at half
    its length, down to one node (two for the first when gamma > 0, whose
    t_0 value is extrapolated from t_1 and t_2), and so do the windows
    after it. After each window the operators push the history it
    completes. A window that runs out of iterations ends the march, and
    the start values after it are pushed too."""
    g = problem.gamma
    skip = 1 if g > 0.0 else 0
    t = grid.nodes
    weight = t**g if g else None  # of the deltas, once per solve
    n = grid.n_intervals
    values = np.full(n + 1, np.nan)
    values[skip:] = _finite(rhs(slice(None), [tp.values[skip:] for tp in taylor]), t[skip:])
    hist = [op.history(values[0], g) for op in inner]
    lo, size, windows = 1, n, []
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
        windows.append(_window(
            lambda: picard_step(rhs, past, near, block, nodes), cur, t[lo:hi],
            None if weight is None else weight[lo:hi], tol, max_iter, w > least,
            exact and (lambda res: exact(near, lo - a, nodes, res))))
        deltas, ended, _ = windows[-1]
        if ended == "halved":
            size = max(w // 2, least)
            continue  # run the window again, shorter
        if deltas[-1] > tol:
            break  # out of iterations
        lo = hi
        for op, h in zip(inner, hist):
            op.push_history(h, values, range(lo, lo + 1), g)
    while lo <= n:  # out of iterations: push the block starts past the window too
        lo = block_bounds(lo, n)[1]
        for op, h in zip(inner, hist):
            op.push_history(h, values, range(lo, lo + 1), g)
    return SampledFunction(grid, values, g), windows, hist


def solve(
    problem: MultiTermProblem,
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolutionTrajectory:
    """Iterate phi <- picard_step(phi), window by window, until the
    weighted update norm drops to tol or a window exhausts max_iter;
    reconstruct y = taylor part + I^alpha phi.

    The report is read off _march's record of every window attempt. An
    exhausted iteration budget returns a trajectory whose report has
    converged False; its worst_ratio, and largest_diagonal against
    diagonal_bound, show why. No numpy floating-point warning escapes: an
    overflow raises NonFiniteIterateError where it reaches phi or y.
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
    with np.errstate(all="ignore"):  # what leaves passes _finite or the exact step's check
        orders = problem.derivative_orders
        inner = tuple(build_integral_operator(problem.alpha - a, grid) for a in orders)
        taylor = tuple(derivative_taylor_part(problem.initial_values, a, grid) for a in orders)
        bound = tol ** (1.0 / max_iter)  # the largest diagonal plain updates finish
        t = grid.nodes[1 if problem.gamma > 0.0 else 0 :]
        rhs = compile_rhs(problem.rhs, t)  # before the slopes: f's own domain errors come first
        trees = rhs_derivatives(problem.rhs, problem.m) or ()  # None where f is not affine in z
        slopes = [compile_rhs(d, t)(slice(None), ()) for d in trees]  # df/dz_h on t
        constant = bool(slopes) and all(np.ptp(s) == 0.0 for s in slopes)  # nan, inf: not constant
        if constant:  # one value each, broadcast: the march holds no N-array of slopes
            slopes = [np.broadcast_to(s[0], s.shape) for s in slopes]
        exact = _exact_steps(slopes, constant, inner, grid, problem.gamma, bound)
        phi, windows, hist = _march(problem, grid, inner, taylor, rhs, exact, tol, max_iter)

        z_final = tuple(SampledFunction(grid, op.close(h, phi.values, problem.gamma) + tp.values)
                        for op, h, tp in zip(inner, hist, taylor))
        if orders and orders[-1] == 0.0:  # inner[-1] is I^alpha: this entry already is y
            y = z_final[-1]
        else:
            taylor_0 = derivative_taylor_part(problem.initial_values, 0.0, grid)
            y = taylor_0 + apply_integral(build_integral_operator(problem.alpha, grid), phi)
        # the weights of a high order on a long horizon can overflow where phi does not
        _finite(np.array([y.values, *(z.values for z in z_final)]), grid.nodes,
                "y or an inner derivative took")

        if constant:  # |f(z) - f(z')| <= max_h |s_h| ||z - z'||_1, and equal for some pair
            lipschitz = float(max(abs(s[0]) for s in slopes))
        else:
            try:
                lipschitz = _observed_lipschitz(problem, grid, z_final)
            except ArithmeticError:
                lipschitz = math.nan
            if not math.isfinite(lipschitz):  # f overflowed on the box
                lipschitz = math.nan

    done = [(d, e) for d, e, _ in windows if e != "halved"]
    deltas = max((d for d, _ in done), key=len)  # the first longest
    report = ConvergenceReport(
        deltas=tuple(deltas), converged=done[-1][0][-1] <= tol, iterations=len(deltas),
        tolerance=tol, lipschitz_estimate=lipschitz,
        contraction_estimate=estimate_contraction(lipschitz, problem), windows=len(done),
        worst_ratio=max([0.0, *(b / a for d, _, _ in windows for a, b in zip(d, d[1:]))]),
        steps=sum(len(d) for d, _, _ in windows), exact_windows=sum(e == "exact" for _, e in done),
        largest_diagonal=max([0.0, *(diag for _, _, diag in windows)]), diagonal_bound=bound,
    )
    return SolutionTrajectory(grid=grid, y=y, inner=z_final, phi=phi, report=report)
