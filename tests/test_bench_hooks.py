"""The names the benchmark in bench/ hooks into must exist in the package.

bench/layers.py installs its wrappers with getattr on fracpicard's modules,
bench/run.py silences fracpicard.ContractionWarning and bench/workloads.py
builds its grids with Grid.uniform. A rename in the package would otherwise
only show when the benchmark runs, since the test suite does not run it.
"""

import importlib
from pathlib import Path

import pytest

import fracpicard
import fracpicard.cli  # noqa: F401  (instrumentation wraps names in the CLI too)
from fracpicard import Grid, problem_from_dict

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


def test_every_wrapped_name_exists(bench_modules):
    layers, spans = bench_modules
    hooks = layers.instrumentation(spans.Tracer(), fracpicard)
    assert hooks and all(callable(wrapper) for _, _, wrapper in hooks)


def test_names_the_benchmark_calls_exist():
    assert issubclass(fracpicard.ContractionWarning, Warning)
    assert Grid.uniform(2.0, 16) == Grid(2.0, 16)


def test_picard_step_spans_count_the_iterations(bench_modules):
    # -9 sin(z1) at N = 64 halves its windows: f is not affine in z, so
    # no exact step ends them early
    layers, spans = bench_modules
    problem = problem_from_dict({
        "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
        "horizon": 1.0, "rhs": "-9*sin(z1)",
    })
    tracer = spans.Tracer()
    hooks = layers.instrumentation(tracer, fracpicard)
    with spans.patched(hooks), tracer.span("bench.op") as root:
        trajectory = fracpicard.picard_solver.solve(problem, Grid(1.0, 64))
    steps = [s for s in tracer.spans if s.name == "picard_solver.picard_step"]
    # one call per update of every window, halved attempts included
    assert trajectory.report.steps > trajectory.report.iterations > 1
    assert len(steps) == trajectory.report.steps
    counted = layers.reduce_op(tracer.spans, root, 1)["picard_solver.iterations"]
    assert counted == trajectory.report.steps


def test_graded_weighted_solve_reads_the_tables(bench_modules):
    # layers.py reads op._table, op._stencil, op._boundary and
    # op._weighted_tables directly. A graded gamma > 0 solve marches over
    # the weighted table of I^0.5 and closes its own history, so the
    # weighted apply is made here, on the solve's phi; the plain table is
    # built because the build hook reads op._table
    layers, spans = bench_modules
    problem = problem_from_dict({
        "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
        "horizon": 1.0, "gamma": 0.3, "rhs": "t^(-0.3) + 0*z1",
    })
    grid = Grid(1.0, 128, 2.0)
    tracer = spans.Tracer()
    hooks = layers.instrumentation(tracer, fracpicard)
    op = fracpicard.build_integral_operator(0.5, grid)
    with spans.patched(hooks), tracer.span("bench.op") as root:
        trajectory = fracpicard.picard_solver.solve(problem, grid)
        fracpicard.fractional_ops.integral_node_values(op, trajectory.phi)
    m = layers.reduce_op(tracer.spans, root, 1)
    plain = fracpicard.build_integral_operator(0.5, grid)._table
    assert plain.shape == (128, 129)
    assert m["fractional_ops.table_bytes"] == plain.nbytes
    assert m["fractional_ops.apply_weighted_s"] > 0
