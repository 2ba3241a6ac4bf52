"""Command line front end.

Modes:
  solve   integrate the problem, write the trajectory and the per-iteration
          update norms (of the window that took the most) as CSV
  verify  solve, then run the residual / initial-limit / decay checks
          against their thresholds
  study   solve on a dyadic ladder of grids against a closed-form oracle
          and tabulate sup errors and observed orders
  oracle  tabulate the closed-form oracle itself

Oracles: "ml:<lambda>" is the exact solution of the linear problem
D^alpha y = lambda * y with the problem's initial values, namely
sum_j b_j t^j E_(alpha, j+1)(lambda t^alpha); "expr:<text>" is any
expression in t using the package grammar.

Exit codes: 0 success, 1 bad input (file, flags, problem validation),
2 non-convergence or a failed verification threshold.

All floats are written with repr-faithful precision (%.17g), so repeated
runs produce byte-identical files. The study mode solves grids in a thread
pool sized by FRACPICARD_THREADS (default: up to 4).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .fractional_ops import Grid, SampledFunction
from .picard_solver import (
    NonFiniteIterateError,
    SolutionTrajectory,
    solve,
)
from .problem_model import (
    MultiTermProblem,
    RhsDomainError,
    RhsSyntaxError,
    eval_rhs,
    load_problem,
    parse_rhs,
)
from .special_functions import MLParams, SeriesConvergenceError, mittag_leffler
from .verification import check_equivalence, initial_limit_checks, origin_decay

__all__ = ["main", "entry"]


class CliInputError(Exception):
    """Unusable invocation or input file; maps to exit code 1."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, header, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc.strerror or exc}")


def _output_path(cfg: argparse.Namespace) -> str:
    return cfg.output or f"fracpicard_{cfg.mode}.csv"


def _sibling_path(path: str, suffix: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}{suffix}{ext or '.csv'}"


def _make_grid(problem: MultiTermProblem, n_points: int, grading: float) -> Grid:
    if n_points < 16:
        raise CliInputError(f"--n-points must be at least 16, got {n_points}")
    try:
        return Grid(problem.horizon, n_points, grading)
    except ValueError as exc:
        raise CliInputError(f"no usable grid for --n-points {n_points}, --grading {grading}: {exc}")


def _load(cfg: argparse.Namespace) -> MultiTermProblem:
    try:
        return load_problem(cfg.config)
    except OSError as exc:
        raise CliInputError(f"cannot read config file {cfg.config}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise CliInputError(f"config is not valid JSON: {exc}")
    except ValueError as exc:
        raise CliInputError(str(exc))


def _oracle_fn(spec_text: str, problem: MultiTermProblem):
    kind, sep, rest = spec_text.partition(":")
    if not sep:
        raise CliInputError("--oracle must look like ml:<lambda> or expr:<text>")
    if kind == "ml":
        try:
            lam = float(rest)
        except ValueError:
            raise CliInputError(f"ml oracle needs a numeric rate, got {rest!r}")
        if not math.isfinite(lam):
            raise CliInputError(f"--oracle ml: needs a finite rate, got {rest!r}")
        params = [MLParams(problem.alpha, j + 1.0) for j in range(problem.n)]

        def fn(t: np.ndarray) -> np.ndarray:
            t = np.asarray(t, dtype=float)
            with np.errstate(over="ignore"):
                z = lam * t**problem.alpha
            if not np.isfinite(z).all():
                raise CliInputError(f"--oracle {spec_text}: lambda t^alpha overflows on the grid")
            out = np.zeros_like(t)
            for j, bj in enumerate(problem.initial_values):
                if bj == 0.0:
                    continue
                out = out + bj * t**j * mittag_leffler(params[j], z)
            return out

        return fn
    if kind == "expr":
        try:
            expr = parse_rhs(rest, 0)
        except RhsSyntaxError as exc:
            raise CliInputError(f"bad oracle expression: {exc}")

        def fn(t: np.ndarray) -> np.ndarray:
            with np.errstate(all="ignore"):
                vals = eval_rhs(expr, t)
            bad = ~np.isfinite(vals)
            if bad.any():
                raise CliInputError(f"--oracle {spec_text}: not finite at t = {t[np.argmax(bad)]:g}")
            return vals

        return fn
    raise CliInputError(f"unknown oracle kind {kind!r} (use ml: or expr:)")


def _trajectory_rows(trajectory: SolutionTrajectory):
    grid = trajectory.grid
    for i in range(grid.nodes.size):
        row = [grid.nodes[i], trajectory.y.values[i]]
        row.extend(zf.values[i] for zf in trajectory.inner)
        row.append(trajectory.phi.values[i])
        yield row


def run_solve(cfg: argparse.Namespace) -> int:
    problem = _load(cfg)
    grid = _make_grid(problem, cfg.n_points, cfg.grading)
    trajectory = solve(problem, grid, tol=cfg.tol, max_iter=cfg.max_iter)

    out = _output_path(cfg)
    header = ["t", "y"] + [f"z{h + 1}" for h in range(problem.m)] + ["phi"]
    _write_csv(out, header, _trajectory_rows(trajectory))
    conv_path = _sibling_path(out, "_convergence")
    _write_csv(
        conv_path,
        ["iteration", "delta"],
        ([k + 1, d] for k, d in enumerate(trajectory.report.deltas)),
    )

    report = trajectory.report
    status = "converged" if report.converged else "NOT converged"
    versus = ">" if report.largest_diagonal > report.diagonal_bound else "<="
    print(
        f"solve: {status} after {report.iterations} iterations "
        f"(final delta {report.deltas[-1]:.3g}, contraction estimate "
        f"{report.contraction_estimate:.3g}, {report.exact_windows} exact of {report.windows} "
        f"windows, {report.steps} steps, worst ratio {report.worst_ratio:.3g}, largest diagonal "
        f"{report.largest_diagonal:.3g} {versus} {report.diagonal_bound:.3g}); "
        f"wrote {out} and {conv_path}"
    )
    return 0 if report.converged else 2


def _verify_checks(
    cfg: argparse.Namespace, problem: MultiTermProblem, trajectory: SolutionTrajectory
):
    """(name, value, threshold, passed) rows: convergence, then checks that
    pass when value <= threshold. Only the ode_residual threshold is a flag;
    the initial-condition one scales with 1 + |b_k|."""
    residuals = check_equivalence(trajectory, problem)
    rows = [("volterra_residual", residuals.volterra_residual, 1e-3),
            ("ode_residual", residuals.ode_residual, cfg.ode_tol)]
    rows += [(f"ic_error_{k}", err, 5e-2 * (1.0 + abs(problem.initial_values[k])))
             for k, err in enumerate(residuals.ic_errors)]
    rows += [(f"initial_limit_{k}", mag, 5e-2)
             for k, mag in enumerate(initial_limit_checks(problem, trajectory))]
    decay = origin_decay(problem.gamma, problem.alpha, trajectory.grid)
    rows += [("decay_slope_error", abs(decay.slope - (problem.alpha - problem.gamma)), 0.05),
             ("decay_limit", abs(decay.limit_estimate), 1e-3)]
    report = trajectory.report
    return [("converged", report.deltas[-1], cfg.tol, report.converged)] + [
        (name, float(value), threshold, bool(value <= threshold)) for name, value, threshold in rows
    ]


def run_verify(cfg: argparse.Namespace) -> int:
    problem = _load(cfg)
    if cfg.n_points < 2 * problem.n:  # the differential-form residual differences n times
        raise CliInputError(f"verify needs --n-points >= 2 ceil(alpha) = {2 * problem.n}")
    grid = _make_grid(problem, cfg.n_points, cfg.grading)
    trajectory = solve(problem, grid, tol=cfg.tol, max_iter=cfg.max_iter)
    if cfg.self_test_corrupt:
        corrupted = SampledFunction(trajectory.grid, trajectory.y.values * 1.1, 0.0)
        trajectory = dataclasses.replace(trajectory, y=corrupted)
        print("self test: trajectory deliberately corrupted (y scaled by 1.1)")

    checks = _verify_checks(cfg, problem, trajectory)
    out = _output_path(cfg)
    _write_csv(
        out,
        ["check", "value", "threshold", "passed"],
        ([name, value, threshold, "1" if ok else "0"] for name, value, threshold, ok in checks),
    )
    n_pass = sum(1 for c in checks if c[3])
    for name, value, threshold, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {value:.6g} (threshold {threshold:.6g})")
    print(f"verify: {n_pass}/{len(checks)} checks passed; wrote {out}")
    return 0 if n_pass == len(checks) else 2


def _thread_cap(n_tasks: int) -> int:
    env = os.environ.get("FRACPICARD_THREADS", "")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise CliInputError(f"FRACPICARD_THREADS must be an integer, got {env!r}")
        if cap < 1:
            raise CliInputError("FRACPICARD_THREADS must be >= 1")
    else:
        cap = min(4, os.cpu_count() or 1)
    return max(1, min(cap, n_tasks))


def run_study(cfg: argparse.Namespace) -> int:
    problem = _load(cfg)
    if not cfg.oracle:
        raise CliInputError("study mode needs --oracle")
    oracle = _oracle_fn(cfg.oracle, problem)
    if cfg.study_min < 16:
        raise CliInputError(f"--study-min must be at least 16, got {cfg.study_min}")
    sizes = [cfg.study_min]
    while sizes[-1] * 2 <= cfg.n_points:
        sizes.append(sizes[-1] * 2)
    if sizes[-1] != cfg.n_points:
        raise CliInputError(
            f"--n-points must be --study-min times a power of two, got {cfg.n_points}"
        )

    # every grid's nodes are every (N/n)-th node of the finest grid, bit for
    # bit, and the oracle values each node alone: one call serves the ladder
    exact = oracle(_make_grid(problem, cfg.n_points, cfg.grading).nodes)

    def one(n: int):
        grid = _make_grid(problem, n, cfg.grading)
        trajectory = solve(problem, grid, tol=cfg.tol, max_iter=cfg.max_iter)
        err = float(np.max(np.abs(trajectory.y.values - exact[:: cfg.n_points // n])))
        return err, trajectory.report.iterations, trajectory.report.converged

    with ThreadPoolExecutor(max_workers=_thread_cap(len(sizes))) as pool:
        results = list(pool.map(one, sizes))

    rows = []
    all_converged = True
    for i, (n, (err, iters, conv)) in enumerate(zip(sizes, results)):
        if i + 1 < len(sizes) and results[i + 1][0] > 0.0 and err > 0.0:
            order = float(np.log2(err / results[i + 1][0]))
        else:
            order = float("nan")
        rows.append([n, err, order, iters])
        all_converged = all_converged and conv
    out = _output_path(cfg)
    _write_csv(out, ["n_intervals", "sup_error", "observed_order", "iterations"], rows)
    for n, err, order, iters in rows:
        print(f"N = {n:6d}  sup error {err:.6e}  order {order:7.3f}  iterations {iters}")
    print(f"study: wrote {out}")
    return 0 if all_converged else 2


def run_oracle(cfg: argparse.Namespace) -> int:
    problem = _load(cfg)
    if not cfg.oracle:
        raise CliInputError("oracle mode needs --oracle")
    oracle = _oracle_fn(cfg.oracle, problem)
    grid = _make_grid(problem, cfg.n_points, cfg.grading)
    vals = oracle(grid.nodes)
    out = _output_path(cfg)
    _write_csv(out, ["t", "y"], ([t, v] for t, v in zip(grid.nodes, vals)))
    print(f"oracle: wrote {out}")
    return 0


_DISPATCH = {
    "solve": run_solve,
    "verify": run_verify,
    "study": run_study,
    "oracle": run_oracle,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep exit code 2 reserved for non-convergence
        raise CliInputError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fracpicard", description=__doc__ and __doc__.splitlines()[0])
    p.add_argument("--config", required=True, help="problem description (JSON)")
    p.add_argument(
        "--mode", choices=sorted(_DISPATCH), default="solve", help="what to run"
    )
    p.add_argument("--n-points", type=int, default=256, dest="n_points",
                   help="number of grid intervals (default 256)")
    p.add_argument("--grading", type=float, default=1.0,
                   help="mesh grading exponent, 1 = uniform (default 1)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="iteration stopping tolerance (default 1e-10)")
    p.add_argument("--max-iter", type=int, default=200, dest="max_iter",
                   help="iteration budget (default 200)")
    p.add_argument("--output", default="", help="output CSV path")
    p.add_argument("--oracle", default="",
                   help="closed form oracle, ml:<lambda> or expr:<text>")
    p.add_argument("--study-min", type=int, default=16, dest="study_min",
                   help="smallest grid in study mode (default 16)")
    p.add_argument("--ode-tol", type=float, default=1e-2, dest="ode_tol",
                   help="verify: differential-form residual threshold (default 1e-2)")
    p.add_argument("--self-test-corrupt", action="store_true", dest="self_test_corrupt",
                   help="verify: corrupt the trajectory first (the checks must then fail)")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        cfg = parser.parse_args(argv)
        for flag, value in (("--tol", cfg.tol), ("--ode-tol", cfg.ode_tol)):
            if not 0.0 < value < math.inf:
                raise CliInputError(f"{flag} must be finite and positive, got {value}")
        if cfg.max_iter < 1:
            raise CliInputError(f"--max-iter must be at least 1, got {cfg.max_iter}")
        return _DISPATCH[cfg.mode](cfg)
    except (CliInputError, RhsDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonFiniteIterateError, SeriesConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
