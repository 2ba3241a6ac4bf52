"""Acceptance gate: one test per shipping criterion.

Every test prints exactly one [PASS]/[FAIL] line (visible with -s) before
asserting, so a red run still yields a complete scoreboard. Reference
values come from closed forms: E_(1/2)(-sqrt t) = exp(t) erfc(sqrt t) for
the half-order relaxation benchmark, elementary functions for the
integer-order limits, and monomial power rules for the quadrature checks.
"""

import math
import random
import time

import numpy as np
import pytest

from fracpicard.fractional_ops import (
    Grid,
    SampledFunction,
    apply_integral,
    build_integral_operator,
)
from fracpicard.picard_solver import estimate_contraction, solve
from fracpicard.problem_model import (
    MultiTermProblem,
    RhsDomainError,
    eval_rhs,
    parse_rhs,
    problem_from_dict,
    problem_issues,
)
from fracpicard.verification import check_equivalence, composition_identity, origin_decay

from _shunting_yard import evaluate as oracle_evaluate

E_ERFC_1 = 0.4275835761558070  # e * erfc(1), the relaxation solution at t = 1


def _criterion(num: int, desc: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({detail})")
    assert ok, f"criterion {num}: {desc} ({detail})"


def _problem(alpha, orders, ivs, horizon, rhs, gamma=0.0):
    return problem_from_dict({
        "alpha": alpha, "derivative_orders": list(orders),
        "initial_values": list(ivs), "horizon": horizon,
        "rhs": rhs, "gamma": gamma,
    })


BENCH = {
    "relaxation": (
        _problem(0.5, [0.0], [1.0], 1.0, "-z1"),
        1024,
        lambda t: np.array([math.exp(ti) * math.erfc(math.sqrt(ti)) for ti in t]),
    ),
    "manufactured": (
        _problem(1.5, [0.5], [0.0, 0.0], 1.0, "2*t^0.5/0.88622692545275801 + 0*z1"),
        1024,
        lambda t: t**2,
    ),
    "cosine": (
        _problem(2.0, [0.0], [1.0, 0.0], 2.0 * math.pi, "-z1"),
        2048,
        np.cos,
    ),
    "exponential": (
        _problem(1.0, [0.0], [1.0], 1.0, "z1"),
        1024,
        np.exp,
    ),
}


@pytest.fixture(scope="module")
def solved():
    out = {}
    for name, (problem, n, exact) in BENCH.items():
        grid = Grid.uniform(problem.horizon, n)
        traj = solve(problem, grid)
        assert traj.report.converged, name
        out[name] = (problem, grid, traj, exact(grid.nodes))
    return out


def test_criterion_1_relaxation_benchmark(solved):
    problem, grid, traj, exact = solved["relaxation"]

    start = time.perf_counter()
    timed = solve(problem, Grid.uniform(1.0, 1024))
    elapsed = time.perf_counter() - start

    sup = float(np.max(np.abs(traj.y.values - exact)))
    end_err = abs(traj.y.values[-1] - E_ERFC_1)

    errs = []
    for n in (128, 256, 512, 1024):
        g = Grid.uniform(1.0, n)
        tr = solve(problem, g)
        ex = np.array([math.exp(ti) * math.erfc(math.sqrt(ti)) for ti in g.nodes])
        errs.append(float(np.max(np.abs(tr.y.values - ex))))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]

    ok = (
        sup <= 1e-2
        and end_err <= 5e-3
        and all(o >= 0.9 for o in orders)
        and timed.report.converged
        and elapsed < 5.0
    )
    _criterion(
        1, "half-order relaxation benchmark", ok,
        f"sup {sup:.2e}, end error {end_err:.2e}, "
        f"orders {', '.join(f'{o:.3f}' for o in orders)}, {elapsed:.2f} s",
    )


def test_criterion_2_manufactured_solution(solved):
    problem, grid, traj, exact = solved["manufactured"]
    sup = float(np.max(np.abs(traj.y.values - exact)))
    residuals = check_equivalence(traj, problem)
    ok = (
        sup <= 1e-4
        and residuals.volterra_residual <= 1e-3
        and residuals.ode_residual <= 1e-3
    )
    _criterion(
        2, "manufactured quadratic solution", ok,
        f"sup {sup:.2e}, volterra {residuals.volterra_residual:.2e}, "
        f"ode {residuals.ode_residual:.2e}",
    )


def test_criterion_3_integer_order_limits(solved):
    _, _, cos_traj, cos_exact = solved["cosine"]
    _, _, exp_traj, exp_exact = solved["exponential"]
    cos_err = float(np.max(np.abs(cos_traj.y.values - cos_exact)))
    exp_err = float(np.max(np.abs(exp_traj.y.values - exp_exact)))
    ok = cos_err <= 1e-3 and exp_err <= 1e-4
    _criterion(
        3, "integer-order limits reproduce classical solutions", ok,
        f"cosine sup {cos_err:.2e}, exponential sup {exp_err:.2e}",
    )


def test_criterion_4_decay_law_sweep():
    grid = Grid.uniform(1.0, 1024)
    worst_slope = 0.0
    worst_limit = 0.0
    ok = True
    for alpha in (0.3, 0.5, 0.9, 1.5, 2.5):
        for g in (0.0, 0.25, 0.5):
            if g >= alpha:
                continue
            report = origin_decay(g, alpha, grid)
            slope_err = abs(report.slope - (alpha - g))
            worst_slope = max(worst_slope, slope_err)
            worst_limit = max(worst_limit, abs(report.limit_estimate))
            ok = ok and slope_err <= 0.05 and abs(report.limit_estimate) <= 1e-3
            ok = ok and report.hypothesis_ok

    # degenerate boundary: gamma = alpha gives the constant gamma(1 - g)
    boundary = origin_decay(0.5, 0.5, grid)
    ok = ok and boundary.slope == 0.0 and not boundary.hypothesis_ok
    ok = ok and abs(boundary.limit_estimate - math.gamma(0.5)) <= 1e-10

    _criterion(
        4, "endpoint decay law across orders and singularity strengths", ok,
        f"worst slope error {worst_slope:.2e}, worst limit {worst_limit:.2e}, "
        f"boundary constant {boundary.limit_estimate:.12f}",
    )


def test_criterion_5_composition_identity():
    grid = Grid.uniform(1.0, 1024)
    rng = np.random.default_rng(42)
    worst_high = 0.0
    worst_low = 0.0
    for alpha in (1.25, 1.5, 1.75):
        for _ in range(5):
            coeffs = tuple(rng.uniform(-1.0, 1.0, size=6))
            worst_high = max(worst_high, composition_identity(coeffs, alpha, grid))
        for _ in range(5):
            low = tuple(rng.uniform(-1.0, 1.0, size=2))  # degree < ceil(alpha)
            worst_low = max(worst_low, composition_identity(low, alpha, grid))
    ok = worst_high <= 1e-3 and worst_low <= 1e-12
    _criterion(
        5, "derivative recovers the forcing from the reconstructed solution", ok,
        f"degree-5 defect {worst_high:.2e}, low-degree defect {worst_low:.2e}",
    )


def test_criterion_6_contraction_diagnostics():
    problem = _problem(0.5, [0.0], [1.0], 0.25, "-z1")
    omega = estimate_contraction(1.0, problem)
    omega_err = abs(omega - 0.564189583547756)

    traj = solve(problem, Grid.uniform(0.25, 512))
    deltas = traj.report.deltas
    ratios = [
        deltas[k + 1] / deltas[k]
        for k in range(2, len(deltas) - 1)
        if deltas[k] > 1e-12
    ]
    ok = omega_err <= 1e-6 and traj.report.converged and all(r <= 0.67 for r in ratios)
    _criterion(
        6, "a-priori contraction factor and observed delta decay", ok,
        f"omega error {omega_err:.2e}, max ratio {max(ratios):.3f} "
        f"over {len(ratios)} steps",
    )


def test_criterion_7_initial_condition_recovery(solved):
    worst = 0.0
    ok = True
    for name, (problem, grid, traj, _) in solved.items():
        report = check_equivalence(traj, problem)
        for k, err in enumerate(report.ic_errors):
            scale = 1.0 + abs(problem.initial_values[k])
            worst = max(worst, err / scale)
            ok = ok and err <= 5e-2 * scale
    _criterion(
        7, "initial conditions recovered from samples", ok,
        f"worst scaled recovery error {worst:.2e}",
    )


def test_criterion_8_quadrature_exactness():
    worst = 0.0
    for beta in (0.3, 0.5, 1.0, 1.7, 2.5):
        for n in (256, 2048):
            for grading in (1.0, 3.0):
                grid = Grid(1.0, n, grading)
                op = build_integral_operator(beta, grid)
                ones = SampledFunction.from_callable(grid, np.ones_like, 0.0)
                got = apply_integral(op, ones).values[1:]
                exact = grid.nodes[1:] ** beta / math.gamma(beta + 1.0)
                worst = max(worst, float(np.max(np.abs(got - exact) / exact)))
    ok = worst <= 1e-13
    _criterion(
        8, "product rule integrates constants exactly on all meshes", ok,
        f"worst relative error {worst:.2e}",
    )


# --- criterion 9 helpers: random expressions plus a validation matrix ---

_FUNCS = ("sin", "cos", "exp", "abs")


def _gen_atom(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.35:
        return str(round(rng.uniform(0.1, 3.0), 3))
    if roll < 0.55:
        return "t"
    if roll < 0.70:
        return rng.choice(("z1", "z2"))
    if roll < 0.80:
        return "sqrt(t)"
    if roll < 0.90:
        return "log(t + 1.5)"
    return f"{rng.choice(_FUNCS)}(t)"


def _gen_expression(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return _gen_atom(rng)
    if roll < 0.40:
        return f"-({_gen_expression(rng, depth - 1)})"
    if roll < 0.55:
        return f"{rng.choice(_FUNCS)}({_gen_expression(rng, depth - 1)})"
    if roll < 0.75:
        # flat chain without parens, exercising precedence directly
        parts = [_gen_atom(rng)]
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("+", "-", "*", "/", "^"))
            parts.append(op)
            parts.append(str(rng.randint(1, 3)) if op == "^" else _gen_atom(rng))
        return " ".join(parts)
    op = rng.choice(("+", "-", "*", "/", "^"))
    left = _gen_expression(rng, depth - 1)
    right = str(rng.randint(1, 3)) if op == "^" else _gen_expression(rng, depth - 1)
    return f"({left}) {op} ({right})"


def _eval_pair(text: str, t: float, z1: float, z2: float):
    theirs = oracle_evaluate(text, {"t": t, "z1": z1, "z2": z2})
    ours = eval_rhs(parse_rhs(text, 2), t, (z1, z2))
    return ours, theirs


_VALID = dict(
    alpha=1.5, derivative_orders=(0.5, 0.0), initial_values=(1.0, 0.0),
    horizon=1.0, gamma=0.0, rhs="z1+z2",
)


def _case(expected_code, **overrides):
    kw = dict(_VALID, **overrides)
    kw["rhs"] = parse_rhs(kw["rhs"], 9)
    return MultiTermProblem(**kw), expected_code


_MATRIX = [
    # alpha must be positive (5)
    _case("alpha_positive", alpha=0.0),
    _case("alpha_positive", alpha=-0.5),
    _case("alpha_positive", alpha=-1.0),
    _case("alpha_positive", alpha=-3.7),
    _case("alpha_positive", alpha=-100.0),
    # horizon must be positive (5)
    _case("horizon_positive", horizon=0.0),
    _case("horizon_positive", horizon=-1.0),
    _case("horizon_positive", horizon=-0.25),
    _case("horizon_positive", horizon=-10.0),
    _case("horizon_positive", horizon=-1e-9),
    # orders must descend strictly below alpha and stay non-negative (10)
    _case("order_chain", derivative_orders=(1.5, 0.5)),
    _case("order_chain", derivative_orders=(0.5, 0.5)),
    _case("order_chain", derivative_orders=(0.0, 0.5)),
    _case("order_chain", derivative_orders=(1.6, 0.5)),
    _case("order_chain", derivative_orders=(0.5, -0.5)),
    _case("order_chain", derivative_orders=(-0.5,), rhs="z1"),
    _case("order_chain", derivative_orders=(2.0, 1.0)),
    _case("order_chain", derivative_orders=(0.5, 0.25, 0.25), rhs="z1+z2+z3"),
    _case("order_chain", derivative_orders=(1.0, 1.0)),
    _case("order_chain", derivative_orders=(0.75, 0.8)),
    # exactly ceil(alpha) initial values (8)
    _case("initial_count", initial_values=()),
    _case("initial_count", initial_values=(1.0,)),
    _case("initial_count", initial_values=(1.0, 2.0, 3.0)),
    _case("initial_count", initial_values=(1.0, 2.0, 3.0, 4.0)),
    _case("initial_count", alpha=0.5, derivative_orders=(0.0,), rhs="z1",
          initial_values=()),
    _case("initial_count", alpha=0.5, derivative_orders=(0.0,), rhs="z1",
          initial_values=(1.0, 2.0)),
    _case("initial_count", alpha=2.5, initial_values=(1.0,)),
    _case("initial_count", alpha=2.5, initial_values=(1.0, 2.0)),
    # forcing singularity strength limited by the fractional part (8)
    _case("gamma_range", gamma=0.5),
    _case("gamma_range", gamma=0.75),
    _case("gamma_range", gamma=1.0),
    _case("gamma_range", gamma=-0.1),
    _case("gamma_range", gamma=-1.0),
    _case("gamma_range", alpha=0.5, derivative_orders=(0.0,),
          initial_values=(1.0,), rhs="z1", gamma=0.5),
    _case("gamma_range", alpha=0.5, derivative_orders=(0.0,),
          initial_values=(1.0,), rhs="z1", gamma=0.9),
    _case("gamma_range", alpha=2.5, initial_values=(1.0, 2.0, 3.0), gamma=0.7),
    # leading inner order must need fewer initial values than alpha (4)
    _case("inner_order_bound", derivative_orders=(1.25, 0.5)),
    _case("inner_order_bound", alpha=0.5, derivative_orders=(0.25,),
          initial_values=(1.0,), rhs="z1"),
    _case("inner_order_bound", alpha=2.5, derivative_orders=(2.25, 1.0),
          initial_values=(1.0, 2.0, 3.0)),
    _case("inner_order_bound", alpha=0.9, derivative_orders=(0.5,),
          initial_values=(1.0,), rhs="z1"),
    # y shorthand needs a trailing order-0 term (5)
    _case("y_alias", rhs="y", derivative_orders=(0.5,)),
    _case("y_alias", rhs="y + z1", derivative_orders=(0.5,)),
    _case("y_alias", rhs="sin(y)", derivative_orders=()),
    _case("y_alias", rhs="y*t", derivative_orders=(1.0, 0.5)),
    _case("y_alias", rhs="2^y", alpha=0.5, derivative_orders=(0.25,),
          initial_values=(1.0,)),
    # every z index must have a matching derivative order (5)
    _case("z_index", rhs="z3"),
    _case("z_index", rhs="z2", derivative_orders=(0.5,)),
    _case("z_index", rhs="z1", derivative_orders=()),
    _case("z_index", rhs="z5+z1"),
    _case("z_index", rhs="sin(z4)", derivative_orders=(1.0, 0.5, 0.0)),
]


def test_criterion_9_parser_and_validation():
    assert len(_MATRIX) == 50

    rng = random.Random(20260815)
    compared = 0
    attempts = 0
    worst = 0.0
    while compared < 1000:
        attempts += 1
        assert attempts < 30000, "expression sampling stalled"
        text = _gen_expression(rng, 3)
        t = rng.uniform(0.05, 2.0)
        z1, z2 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        try:
            ours, theirs = _eval_pair(text, t, z1, z2)
        except (RhsDomainError, ValueError, ZeroDivisionError, OverflowError):
            continue
        if not (math.isfinite(ours) and math.isfinite(theirs)):
            continue
        if max(abs(ours), abs(theirs)) > 1e9:
            continue
        diff = abs(ours - theirs) / max(1.0, abs(ours), abs(theirs))
        worst = max(worst, diff)
        compared += 1
    parser_ok = worst <= 1e-12

    failures = []
    for i, (problem, expected) in enumerate(_MATRIX):
        codes = {code for code, _ in problem_issues(problem)}
        if expected not in codes:
            failures.append(f"case {i} expected {expected}, got {sorted(codes)}")
    matrix_ok = not failures

    _criterion(
        9, "expression evaluation matches an independent oracle and "
        "invalid problems are rejected by name", parser_ok and matrix_ok,
        f"{compared} comparisons, worst {worst:.2e}; "
        f"matrix failures: {failures if failures else 'none'}",
    )
