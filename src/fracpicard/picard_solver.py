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
uniform grid and gamma = 0 the equations of any nodes from a block start
on are one lower-triangular Toeplitz system, whose inverse is a
convolution with one column per solve. There, past the march's first
block, which iterates plain Picard from phi^0, the march solves aligned
segments of 64, 128, then 256 nodes, each in one product confirmed by
one update; a segment that misses tol runs again in windows. The march
chooses, halves and pushes the stretches; one kind, picked once in
solve, solves each: plain Picard (_Picard), a dense exact step (_Dense)
or the Toeplitz step with segments (_Toeplitz). The report still carries
omega beside the observed ratios, but since each window contracts on its
own, omega >= 1 on the whole horizon is no sign of trouble.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fractional_ops import (
    Grid,
    NonFiniteIterateError,
    SampledFunction,
    _BLOCK,
    _DIRECT_PUSH,
    _finite,
    _Plan,
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
    """How the iteration went. A solve runs one or more windows, and a
    segment solved in one product (_Toeplitz.segment) counts as one window
    of one update; iterations and deltas (the weighted sup-norm updates)
    are those of the window that took the most updates, steps counts the
    updates of all windows, and worst_ratio is the largest ratio of
    successive updates over all windows, halved attempts (and segments
    that missed tol) included in both (0.0 when none took two).
    exact_windows counts the windows that took the exact step before
    halving and the segments, largest_diagonal is the largest max |diag M|
    of any window that tried it (0.0 when none did), and diagonal_bound
    the largest it takes, tol^(1/max_iter).
    lipschitz_estimate is L of f in z, in the L1 norm on z: max_h
    |df/dz_h| where every slope is constant on the nodes, else sampled by
    estimate_lipschitz over the box the final inner derivatives visit (nan
    where f fails or overflows there); contraction_estimate is omega from
    it (estimate_contraction)."""

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


def picard_step(rhs, z, nodes: slice) -> np.ndarray:
    """One update of phi on a window or segment, not checked for
    finiteness: f(t, z), z[h] the inner derivative z_h there. rhs is f
    compiled (compile_rhs) on the nodes it is sampled at (past t_0 when
    gamma > 0), nodes the stretch's slice of them."""
    return rhs(nodes, z)


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


def _toeplitz_inverse(slopes, inner, bound: float):
    """max |diag M_W| and c, the first column of (I - M_W)^-1 to W =
    min(_DIRECT_PUSH, N) terms, None where _Dense.exact would refuse M_W,
    for M_W the M of W nodes of plans (_Plan) from a block start, where
    every slope s_h is constant. M_W is lower-triangular Toeplitz with
    first column m = sum_h s_h stencil_h[:W], and so is its inverse:
    Inv[i, j] = c[i - j]. So c is the power series 1 / (1 - m) to W terms,
    which doubles its known terms k per pass: with a = e_1 - m and
    (a * c[:k])[k:2k] = e, c[k:2k] = -(c[:k] * e)[:k]. No W x W array is
    built."""
    width = min(_DIRECT_PUSH, inner[0].n)
    a = -sum(s[0] * win.stencil[:width] for s, win in zip(slopes, inner))
    diagonal = abs(float(a[0]))
    if diagonal > bound:
        return diagonal, None
    a[0] += 1.0
    c = np.empty(width)
    c[0], k = 1.0 / a[0], 1
    while k < width:
        j = min(2 * k, width)
        c[k:j] = -np.convolve(c[:k], np.convolve(a[:j], c[:k])[k:j])[: j - k]
        k = j
    return diagonal, c if np.isfinite(c).all() else None


class _Picard:
    """The kind of stretch where f is not affine in z (no slopes df/dz_h):
    windows of plain Picard updates, with no exact step and no segments.
    Each kind holds rhs on the nodes t and the deltas' weight t^g (None at g = 0)."""

    segments = False  # whether the march solves aligned segments (_Toeplitz.segment)

    def __init__(self, rhs, t: np.ndarray, g: float, slopes, inner, tol: float, max_iter: int):
        self.rhs, self.t, self.slopes, self.inner = rhs, t, slopes, inner
        self.weight = t**g if g else None
        self.tol, self.max_iter = tol, max_iter
        self.bound = tol ** (1.0 / max_iter)  # the largest diagonal plain updates finish

    def exact(self, near, r: int, nodes: slice, res: np.ndarray):
        """max |diag M| and the exact step for update res (_Dense.exact): none."""
        return 0.0, None

    def window(self, past, near, block, r: int, nodes: slice, halve: bool):
        """Iterate the window block[r:] until its update is at most tol or
        max_iter updates are spent: its deltas, how it ended, "plain",
        "exact" or "halved", and max |diag M| of its exact step (0.0 where
        it tried none).

        Each update, picard_step(rhs, z, nodes), moves block[r:], a view of
        phi's values, in place; z_h = past[h] + block @ near[h], the Taylor
        part and pushes plus near[h] = inner[h].near_field(lo, hi) applied to
        phi in the block up to t_(hi-1). Where halve holds and an update
        shrinks by less than half, the window halves. The first time, the exact
        step may stand in for that: where there is one and it is finite, the
        iterate before that update moves to the window's fixed point, and the
        updates go on. The next update is then at round-off level; should it
        too shrink by less than half, the window halves after all."""
        cur, deltas, ended, diagonal = block[r:], [], "plain", 0.0
        weight = None if self.weight is None else self.weight[nodes]
        for _ in range(self.max_iter):
            new = picard_step(self.rhs, [p + block @ m for p, m in zip(past, near)], nodes)
            res = new - cur
            deltas.append(float(np.abs(res if weight is None else res * weight).max()))
            if not math.isfinite(deltas[-1]):  # max propagates nan and inf
                _finite(new, self.t[nodes])
            cur[:] = new
            if deltas[-1] <= self.tol:
                break
            slow = halve and len(deltas) > 1 and deltas[-1] > 0.5 * deltas[-2]
            if slow and ended == "plain":
                diagonal, step = self.exact(near, r, nodes, res)  # once per window
                if step is not None and np.isfinite(step).all():
                    cur += step - res  # the iterate before new, plus the step
                    ended = "exact"
                    continue
            if slow:
                return deltas, "halved", diagonal
        return deltas, ended, diagonal


class _Dense(_Picard):
    """The kind where f is affine in z, on tables (_Table) or with slopes
    that vary: each window solves its own system for the exact step."""

    def exact(self, near, r: int, nodes: slice, res: np.ndarray):
        """max |diag M| and delta with (I - M) delta = res, the update's
        change, where M = sum_h diag(df/dz_h) near[h][r:].T is the
        derivative of a window's update by its own values (rows r.. of each
        near field): for f affine in z, the iterate before that update plus
        delta is the window's fixed point. delta is None where max |diag M|
        > bound, above which plain updates would not finish the window even
        on one node, or where I - M is singular."""
        m = sum(s[nodes, None] * block[r:].T for s, block in zip(self.slopes, near))
        diagonal = float(np.abs(m.diagonal()).max())
        if diagonal > self.bound:
            return diagonal, None
        try:
            return diagonal, np.linalg.solve(np.eye(len(m)) - m, res)
        except np.linalg.LinAlgError:
            return diagonal, None


class _Toeplitz(_Picard):
    """The kind where every slope is constant on plans (_Plan): a window w
    nodes wide has M = M_W[:w, :w] of _toeplitz_inverse wherever it lies,
    and the inverse of a leading block of a lower-triangular matrix is the
    leading block of its inverse. So every exact step convolves c[:w] with
    res; where c is refused, every step is, and the march takes no segments."""

    def __init__(self, rhs, t: np.ndarray, g: float, slopes, inner, tol: float, max_iter: int):
        super().__init__(rhs, t, g, slopes, inner, tol, max_iter)
        self.diagonal, self.c = _toeplitz_inverse(slopes, inner, self.bound)
        self.segments = self.c is not None

    def exact(self, near, r: int, nodes: slice, res: np.ndarray):
        w = res.size
        return self.diagonal, None if self.c is None else np.convolve(self.c[:w], res)[:w]

    def segment(self, past, cur: np.ndarray, nodes: slice):
        """Solve a segment's equations phi = f(t, past + N phi) in one
        product: its record, one update ended "exact", or "halved" where it
        misses tol, and each inner operator's own share N_h phi.

        cur, a view of the segment's w values, gets phi = c[:w] * r, r =
        f(t, past) with the segment's own values at 0, so that (I - M) phi
        = r; * is a convolution cut to w terms. The own share stencil_h[:w]
        * phi is the rest of z_h there, and one update from past plus own
        share, which leaves cur as it is, confirms phi. past and nodes are
        as a window's (window); gamma = 0 leaves the delta unweighted."""
        w = cur.size
        cur[:] = np.convolve(self.c[:w], self.rhs(nodes, past))[:w]
        own = [np.convolve(win.stencil[:w], cur)[:w] for win in self.inner]
        new = picard_step(self.rhs, [p + o for p, o in zip(past, own)], nodes)
        delta = float(np.abs(new - cur).max())
        if not math.isfinite(delta):
            _finite(new, self.t[nodes])
        return ([delta], "exact" if delta <= self.tol else "halved", self.diagonal), own


def _march(problem: MultiTermProblem, grid: Grid, inner, taylor, kind):
    """phi, the march's record, the (deltas, ended, diagonal) of every
    window and segment in order, halved attempts included, and z: each
    inner derivative, its Taylor part plus the history closed (close).

    phi^0 = f(t, taylor parts). The windows lie in the blocks of t_1..t_N
    (block_bounds). A window w nodes long starts from the quintic through
    the last final value and those w, 2w, .., 5w nodes before it (the line
    through the last two while t_0, or t_1 for gamma > 0, is nearer; the
    first from phi^0) and iterates (kind.window). One that halves starts
    again at half its length, down to one node (two for the first when
    gamma > 0, whose t_0 value is extrapolated from t_1 and t_2), and so
    do the windows after it. After each window the window steps of inner
    push the history it completes where it ends a block. A window that runs
    out of iterations ends the march, and the start values of the blocks
    after it are pushed too.

    Where kind.segments holds, the march closes each block it completes,
    and past the first block it takes aligned segments t_lo..t_(hi-1), hi -
    lo = min(lowbit(lo - 1), _DIRECT_PUSH, N + 1 - lo): 64, 128, then 256
    nodes. Each is solved in one product (kind.segment) and closed by its
    own share, added to hist; the march pushes at its end only, since a
    block start p inside it has p - lowbit(p - 1) >= lo, and its push would
    reach the segment's own nodes alone. Windows iterate the blocks of a
    segment whose update misses tol from its values."""
    g = problem.gamma
    skip = 1 if g > 0.0 else 0
    n = grid.n_intervals
    values = np.full(n + 1, np.nan)
    values[skip:] = _finite(kind.rhs(slice(None), [tp.values[skip:] for tp in taylor]), kind.t)
    hist = [win.history(values[0]) for win in inner]

    def push(p):
        for win, h in zip(inner, hist):
            win.push(h, values, range(p, p + 1))

    lo, size, windows, closed = 1, n, [], 1
    seg = kind.segments and block_bounds(1, n)[1]  # where the next segment starts
    while lo <= n:
        if lo == seg:
            seg = lo + min((lo - 1) & (1 - lo), _DIRECT_PUSH, n + 1 - lo)  # lowbit(lo - 1)
            past = [h[lo:seg] + tp.values[lo:seg] for h, tp in zip(hist, taylor)]
            record, own = kind.segment(past, values[lo:seg], slice(lo, seg))
            windows.append(record)
            if record[1] == "exact":
                for h, o in zip(hist, own):
                    h[lo:seg] += o
                lo = closed = seg
                if lo <= n:
                    push(lo)
                continue
        a, end = block_bounds(lo, n)
        hi = min(lo + size, end)
        w, least = hi - lo, 1 + (skip and lo == 1)
        cur = values[lo:hi]
        if kind.segments and lo > _BLOCK:
            pass  # inside a segment that missed tol: from its values
        elif lo > _START_DEGREE * w + skip:
            cur[:] = _window_start(w) @ values[lo - 1 - _START_DEGREE * w : lo : w]
        elif lo > 1 + skip:  # the line through the last two values
            cur[:] = values[lo - 1] + (values[lo - 1] - values[lo - 2]) * np.arange(1, w + 1)
        near = [win.near_field(lo, hi) for win in inner]
        past = [h[lo:hi] + tp.values[lo:hi] for h, tp in zip(hist, taylor)]
        windows.append(kind.window(past, near, values[a:hi], lo - a, slice(lo - skip, hi - skip),
                                   w > least))
        deltas, ended, _ = windows[-1]
        if ended == "halved":
            size = max(w // 2, least)
            continue  # run the window again, shorter
        if deltas[-1] > kind.tol:
            break  # out of iterations
        lo = hi
        if lo == end:
            if kind.segments:
                for win, h in zip(inner, hist):
                    h[a:end] += values[a:end] @ win.near_field(a, end)
                closed = end
            if lo <= n:
                push(lo)
    # out of iterations: push the block starts past the window too
    for p in range(block_bounds(lo, n)[1], n + 1, _BLOCK):
        push(p)
    z = tuple(SampledFunction(grid, win.close(h, values, closed) + tp.values)
              for win, h, tp in zip(inner, hist, taylor))
    return SampledFunction(grid, values, g), windows, z


def solve(
    problem: MultiTermProblem,
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolutionTrajectory:
    """Iterate phi <- f(t, z) window by window (_march) until the weighted
    update norm drops to tol or a window exhausts max_iter; take the march's
    finished z and reconstruct y = taylor part + I^alpha phi.

    The report is read off _march's record of every window attempt. An
    exhausted iteration budget returns a trajectory whose report has
    converged False; its worst_ratio, and largest_diagonal against
    diagonal_bound, show why. No numpy floating-point warning escapes: an
    overflow raises NonFiniteIterateError where it reaches phi or y.
    """
    validate_problem(problem)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if operator.index(max_iter) < 1:  # an integer, numpy's too: 2.5 fails here, not in a window
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if abs(grid.horizon - problem.horizon) > 1e-12 * max(problem.horizon, 1.0):
        raise ValueError(
            f"grid horizon {grid.horizon:g} does not match problem horizon "
            f"{problem.horizon:g}"
        )
    with np.errstate(all="ignore"):  # what leaves passes _finite or the exact step's check
        orders = problem.derivative_orders
        inner = tuple(build_integral_operator(problem.alpha - a, grid).window(problem.gamma)
                      for a in orders)
        taylor = tuple(derivative_taylor_part(problem.initial_values, a, grid) for a in orders)
        t = grid.nodes[1 if problem.gamma > 0.0 else 0 :]
        rhs = compile_rhs(problem.rhs, t)  # before the slopes: f's own domain errors come first
        trees = rhs_derivatives(problem.rhs, problem.m) or ()  # None where f is not affine in z
        slopes = [compile_rhs(d, t)(slice(None), ()) for d in trees]  # df/dz_h on t
        constant = bool(slopes) and all(np.ptp(s) == 0.0 for s in slopes)  # nan, inf: not constant
        if constant:  # one value each, broadcast: the march holds no N-array of slopes
            slopes = [np.broadcast_to(s[0], s.shape) for s in slopes]
        affine = _Toeplitz if constant and all(isinstance(win, _Plan) for win in inner) else _Dense
        kind = (affine if slopes else _Picard)(rhs, t, problem.gamma, slopes, inner, tol, max_iter)
        phi, windows, z_final = _march(problem, grid, inner, taylor, kind)
        if orders and orders[-1] == 0.0:  # inner[-1] is I^alpha: this entry already is y
            y = z_final[-1]
        else:
            taylor_0 = derivative_taylor_part(problem.initial_values, 0.0, grid)
            y = taylor_0 + apply_integral(build_integral_operator(problem.alpha, grid), phi)
        # the weights of a high order on a long horizon can overflow where phi does not
        _finite((y.values, *(z.values for z in z_final)), grid.nodes,
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
        largest_diagonal=max([0.0, *(diag for _, _, diag in windows)]), diagonal_bound=kind.bound,
    )
    return SolutionTrajectory(grid=grid, y=y, inner=z_final, phi=phi, report=report)
