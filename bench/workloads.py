"""Seeded problem sets, the operations run on them, and the independent
references their results are checked against.

Every problem is manufactured: the benchmark picks a closed-form solution
first and derives the right-hand side from it, so the reference never
comes from fracpicard (no mittag_leffler, no eval_rhs, no CLI oracle).
Parameters are drawn by Latin-hypercube stratification (see _Strata), so
every seed covers each parameter range evenly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x), via math.erfc."""
    return math.exp(x * x) * math.erfc(x)


def _num(x: float) -> str:
    return f"({float(x)!r})"


class _Strata:
    """Stratified draws: k values over [lo, hi], one in the middle quarter
    of each of k equal slices. Which slice each problem gets is a fixed
    design, the same for every seed; the seed moves each value within its
    slice. So every seed's set has nearly the same cost and accuracy, and
    per-seed medians measure the program, not the draw."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.design = np.random.default_rng(0)

    def __call__(self, k: int, lo: float, hi: float) -> list:
        slot = self.design.permutation(k) + 0.375 + 0.25 * self.rng.random(k)
        return (lo + (hi - lo) * slot / k).tolist()


@dataclass
class Case:
    """One generated problem: the JSON the package sees, the closed-form
    solution y(t) it was manufactured from, and for study problems the
    oracle flag handed to the CLI."""

    spec: dict
    exact: Callable[[np.ndarray], np.ndarray]
    oracle: str = ""
    path: str = ""
    problem: object = None
    grid: object = None
    y_ref: np.ndarray | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str               # "solve" (library), "verify" or "study" (CLI)
    n_points: int
    cases: int              # size of the problem set the run cycles through
    min_digits: float       # accuracy bound: fewer correct digits is a failure
    make: Callable = field(repr=False)
    cli_args: tuple = ()


def _uniform_relax(draw, k):
    """D^a y = D^a y* + lam (y* - y), y* = b0 + c t^p, a in [0.4, 0.9]."""
    alpha = draw(k, 0.4, 0.9)
    p = draw(k, 1.0, 2.0)
    b0 = draw(k, 0.5, 1.5)
    c = draw(k, 0.5, 1.5)
    lam = draw(k, -2.0, -1.0)
    cases = []
    for a, pi, b, ci, la in zip(alpha, p, b0, c, lam):
        kd = ci * math.gamma(pi + 1.0) / math.gamma(pi + 1.0 - a)
        rhs = (f"{_num(kd)}*t^{_num(pi - a)}"
               f" + {_num(la)}*({_num(b)} + {_num(ci)}*t^{_num(pi)} - z1)")
        spec = dict(alpha=a, derivative_orders=[0.0], initial_values=[b],
                    horizon=1.0, gamma=0.0, rhs=rhs)
        cases.append(Case(spec, lambda t, b=b, ci=ci, pi=pi: b + ci * t**pi))
    return cases


def _singular_verify(draw, k):
    """D^a y = k t^-g + lam (y - y*), y* = 1 + c t^(a - g), so phi ~ t^-g."""
    alpha = draw(k, 0.5, 0.9)
    gam = draw(k, 0.1, 0.3)
    c = draw(k, 0.5, 1.5)
    lam = draw(k, -2.0, -1.0)
    cases = []
    for a, gm, ci, la in zip(alpha, gam, c, lam):
        kd = ci * math.gamma(a - gm + 1.0) / math.gamma(1.0 - gm)
        rhs = (f"{_num(kd)}*t^{_num(-gm)}"
               f" + {_num(la)}*(z1 - 1 - {_num(ci)}*t^{_num(a - gm)})")
        spec = dict(alpha=a, derivative_orders=[0.0], initial_values=[1.0],
                    horizon=1.0, gamma=gm, rhs=rhs)
        cases.append(Case(spec, lambda t, a=a, gm=gm, ci=ci: 1.0 + ci * t ** (a - gm)))
    return cases


# E_a(z) for the three study orders, from functions fracpicard does not use.
_ML_EXACT = {
    0.5: lambda z: erfcx(-z),
    1.0: math.exp,
    2.0: lambda z: math.cos(math.sqrt(-z)),
}


def _study_ladder(draw, k):
    """D^a y = lam y, y(0) = 1 (y'(0) = 0 at a = 2), a in 1/2, 1 and 2,
    with |lam| T^a stratified over (0, 10] and lam < 0 for each order.

    A quarter of the set has a = 1/2, a quarter a = 2 and half a = 1. The
    a = 1 studies cost 0.3 to 0.9 s, from the smallest to the largest
    |lam| T^a, so twice as many of them make the middle of the cost
    distribution dense, and the median follows the machine's speed
    instead of jumping between a few problems."""
    per = k // 4
    by_order = {}
    for a, count in ((0.5, per), (1.0, k - 2 * per), (2.0, per)):
        x = draw(count, 0.0, 10.0)
        horizon = draw(count, 0.5, 2.0)
        cases = by_order[a] = []
        for xi, ti in zip(x, horizon):
            lam = -xi / ti**a
            ml = _ML_EXACT[a]
            spec = dict(alpha=a, derivative_orders=[0.0],
                        initial_values=[1.0, 0.0] if a == 2.0 else [1.0],
                        horizon=ti, gamma=0.0, rhs=f"{_num(lam)}*z1")
            exact = np.vectorize(lambda t, lam=lam, a=a, ml=ml: ml(lam * t**a), otypes=[float])
            cases.append(Case(spec, exact, oracle=f"ml:{lam!r}"))
    # interleave the orders so any prefix of the set mixes all three, cheapest first
    a1 = by_order[1.0]
    return [c for i in range(per)
            for c in (by_order[2.0][i], a1[2 * i], a1[2 * i + 1], by_order[0.5][i])]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform_relax", "solve", 8192, 8, 3.0, _uniform_relax),
        Workload("singular_verify", "verify", 512, 8, 8.0, _singular_verify,
                 ("--ode-tol", "5e-2")),
        Workload("study_ladder", "study", 4096, 20, 2.0, _study_ladder,
                 ("--study-min", "16")),
    )
}

# Sizes for the benchmark's own tests: same code paths, a fraction of the work.
TINY = {"uniform_relax": 1024, "singular_verify": 128, "study_ladder": 64}


def sized(w: Workload, tiny: bool) -> Workload:
    return replace(w, n_points=TINY[w.name], cases=4) if tiny else w


def make_cases(w: Workload, seed: int, work_dir: str, fp) -> list:
    """Generate, write and validate the seeded problem set.

    fp is the imported fracpicard package; every problem is loaded back
    through load_problem, so a set the package rejects fails set-up."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    cases = w.make(_Strata(rng), w.cases)
    for i, case in enumerate(cases):
        case.path = os.path.join(work_dir, f"{w.name}_{i}.json")
        with open(case.path, "w", encoding="utf-8") as fh:
            json.dump(case.spec, fh)
        case.problem = fp.load_problem(case.path)
        case.grid = fp.Grid.uniform(case.problem.horizon, w.n_points)
        case.y_ref = np.asarray(case.exact(case.grid.nodes), dtype=float)
    return cases


def digits(y: np.ndarray, y_ref: np.ndarray) -> float:
    """Correct digits -log10(sup|y - y_ref| / sup|y_ref|); inf when exact."""
    err = float(np.max(np.abs(y - y_ref))) / float(np.max(np.abs(y_ref)))
    if not math.isfinite(err):
        return -math.inf
    return math.inf if err == 0.0 else -math.log10(err)


def cli_argv(w: Workload, case: Case, out: str) -> list:
    argv = ["--config", case.path, "--mode", w.mode, "--n-points", str(w.n_points),
            "--output", out, *w.cli_args]
    if case.oracle:
        argv += ["--oracle", case.oracle]
    return argv
