"""Where the benchmark hooks into fracpicard, and how one traced operation
is reduced to per-layer numbers.

Each layer is one module of src/fracpicard. A wrapper is installed in the
namespace of the module that makes the call, under the name that module
looks up, and the span is named after the layer that owns the callee.
Operation kinds (uniform or weighted apply, first weighted apply
per operator and exponent) are read from the arguments before the call.
"""

from __future__ import annotations

import statistics
from collections import Counter

from spans import Tracer, self_times

LAYERS = ("cli", "problem_model", "fractional_ops", "picard_solver",
          "verification", "special_functions")

_APPLY = ("fractional_ops.apply_integral", "fractional_ops.integral_node_values")


def _apply_info(args):
    op, f = args[0], args[1]
    n = op.grid.n_intervals
    g = f.singular_exponent
    if g > 0.0:
        key = round(g, 15)
        # the package builds a weighted table on the first weighted apply
        # of an operator and exponent, then caches it on the operator
        kind = "weighted" if key in op._weighted_tables else "weighted_build"
        return {"kind": kind, "madds": n * (n + 1), "op": op, "key": key}
    return {"kind": "uniform", "madds": n * n / 2}


def _after_apply(span, args, result):
    info = span.info
    if info["kind"] == "weighted_build":
        info["bytes"] = info["op"]._weighted_tables[info["key"]].nbytes
    info.pop("op", None)


def _after_build(span, args, op):
    arrays = (op._table,) if op._table is not None else (op._stencil, op._boundary)
    grid = op.grid
    span.info = {
        "bytes": sum(a.nbytes for a in arrays),
        "key": (round(op.order, 15), grid.n_intervals, grid.grading, grid.horizon),
    }


def _after_solve(span, args, trajectory):
    deltas = trajectory.report.deltas
    span.info = {"growth": max(deltas) / deltas[0] if deltas and deltas[0] > 0 else 1.0}


def _traced_pool(tracer: Tracer, base):
    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            parent = tracer.current()

            def task(*args):
                with tracer.span("cli.study_task", parent):
                    return fn(*args)

            return super().map(task, *iterables, **kwargs)

    return TracedPool


def instrumentation(tracer: Tracer, fp) -> list:
    """(module, name, wrapper) triples for spans.patched."""
    cli, ps, ver = fp.cli, fp.picard_solver, fp.verification
    fo, pm = fp.fractional_ops, fp.problem_model
    hooks = {
        "apply_integral": ("fractional_ops.apply_integral", _apply_info, _after_apply),
        "integral_node_values": ("fractional_ops.integral_node_values", _apply_info, _after_apply),
        "build_integral_operator": ("fractional_ops.build_integral_operator", None, _after_build),
        "caputo_derivative": ("fractional_ops.caputo_derivative", None, None),
        "solve": ("picard_solver.solve", None, _after_solve),
        "picard_step": ("picard_solver.picard_step", None, None),
        "eval_rhs": ("problem_model.eval_rhs", None, None),
        "estimate_lipschitz": ("problem_model.estimate_lipschitz", None, None),
        "load_problem": ("problem_model.load_problem", None, None),
        "check_equivalence": ("verification.check_equivalence", None, None),
        "initial_limit_checks": ("verification.initial_limit_checks", None, None),
        "origin_decay": ("verification.origin_decay", None, None),
        "mittag_leffler": ("special_functions.mittag_leffler", None, None),
        "main": ("cli.main", None, None),
    }
    sites = {
        cli: ("main", "solve", "load_problem", "check_equivalence",
              "initial_limit_checks", "origin_decay", "mittag_leffler"),
        ps: ("solve", "picard_step", "apply_integral", "build_integral_operator",
             "eval_rhs", "estimate_lipschitz"),
        ver: ("apply_integral", "integral_node_values", "build_integral_operator",
              "caputo_derivative"),
        fo: ("apply_integral", "integral_node_values", "build_integral_operator"),
        pm: ("eval_rhs",),
    }
    out = []
    for mod, names in sites.items():
        for name in names:
            span_name, before, after = hooks[name]
            out.append((mod, name, tracer.wrap(span_name, getattr(mod, name), before, after)))
    out.append((cli, "ThreadPoolExecutor", _traced_pool(tracer, cli.ThreadPoolExecutor)))
    return out


# name -> unit of every per-layer metric one traced operation yields
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("bench",)},
    "fractional_ops.apply_uniform_s": "s",
    "fractional_ops.apply_weighted_s": "s",
    "fractional_ops.apply_calls": "count",
    "fractional_ops.apply_madds": "count",
    "fractional_ops.build_s": "s",
    "fractional_ops.build_calls": "count",
    "fractional_ops.table_bytes": "B",
    "fractional_ops.duplicate_build_ratio": "ratio",
    "fractional_ops.weighted_build_s": "s",
    "fractional_ops.weighted_build_calls": "count",
    "fractional_ops.weighted_builds_via_verification": "count",
    "fractional_ops.caputo_s": "s",
    "picard_solver.iterations": "count",
    "picard_solver.step_self_s": "s",
    "picard_solver.delta_growth": "ratio",
    "problem_model.eval_rhs_calls": "count",
    "problem_model.eval_rhs_s": "s",
    "problem_model.lipschitz_s": "s",
    "problem_model.load_s": "s",
    "verification.equivalence_s": "s",
    "verification.initial_limits_s": "s",
    "verification.origin_decay_s": "s",
    "special_functions.ml_calls": "count",
    "special_functions.ml_s": "s",
    "cli.study_busy_ratio": "ratio",
}

# counts that must repeat exactly whenever the same problem is run again
EXACT_COUNTS = ("picard_solver.iterations", "fractional_ops.apply_calls",
                "fractional_ops.build_calls", "fractional_ops.weighted_build_calls",
                "problem_model.eval_rhs_calls", "special_functions.ml_calls",
                "fractional_ops.table_bytes")

_TIMED = {
    "fractional_ops.build_integral_operator": "fractional_ops.build_s",
    "fractional_ops.caputo_derivative": "fractional_ops.caputo_s",
    "problem_model.eval_rhs": "problem_model.eval_rhs_s",
    "problem_model.estimate_lipschitz": "problem_model.lipschitz_s",
    "problem_model.load_problem": "problem_model.load_s",
    "verification.check_equivalence": "verification.equivalence_s",
    "verification.initial_limit_checks": "verification.initial_limits_s",
    "verification.origin_decay": "verification.origin_decay_s",
    "special_functions.mittag_leffler": "special_functions.ml_s",
}
_COUNTED = {
    "fractional_ops.build_integral_operator": "fractional_ops.build_calls",
    "picard_solver.picard_step": "picard_solver.iterations",
    "problem_model.eval_rhs": "problem_model.eval_rhs_calls",
    "special_functions.mittag_leffler": "special_functions.ml_calls",
}
_APPLY_TIME = {
    "uniform": "fractional_ops.apply_uniform_s",
    "weighted": "fractional_ops.apply_weighted_s",
    "weighted_build": "fractional_ops.weighted_build_s",
}


def reduce_op(spans: list, root, threads: int) -> dict:
    """Per-layer numbers of one traced operation whose outermost span is root."""
    own = self_times(spans)
    total = sum(own.values())
    if abs(total - root.duration) > 1e-6 * root.duration:
        raise RuntimeError(f"self times add up to {total} s, the operation took {root.duration} s")
    m = dict.fromkeys(UNITS, 0.0)
    builds = Counter()
    growth = []
    for s in spans:
        name = s.name
        m[f"{s.layer}.self_s"] += own[id(s)]
        if name in _TIMED:
            m[_TIMED[name]] += s.duration
        if name in _COUNTED:
            m[_COUNTED[name]] += 1
        if name == "picard_solver.picard_step":
            m["picard_solver.step_self_s"] += own[id(s)]
        elif name == "picard_solver.solve":
            growth.append(s.info["growth"])
        elif name == "fractional_ops.build_integral_operator":
            m["fractional_ops.table_bytes"] += s.info["bytes"]
            builds[s.info["key"]] += 1
        elif name == "cli.study_task":
            m["cli.study_busy_ratio"] += s.duration
        elif name in _APPLY and (s.parent is None or s.parent.name not in _APPLY):
            kind = s.info["kind"]
            m[_APPLY_TIME[kind]] += s.duration
            m["fractional_ops.apply_calls"] += 1
            m["fractional_ops.apply_madds"] += s.info["madds"]
            if kind == "weighted_build":
                m["fractional_ops.weighted_build_calls"] += 1
                m["fractional_ops.table_bytes"] += s.info["bytes"]
                if _under(s, "verification"):
                    m["fractional_ops.weighted_builds_via_verification"] += 1
    n_builds = sum(builds.values())
    if n_builds:
        m["fractional_ops.duplicate_build_ratio"] = (n_builds - len(builds)) / n_builds
    m["picard_solver.delta_growth"] = max(growth, default=1.0)
    m["cli.study_busy_ratio"] /= root.duration * threads
    return m


def _under(span, layer: str) -> bool:
    s = span.parent
    while s is not None:
        if s.layer == layer:
            return True
        s = s.parent
    return False


def medians(per_op: list) -> dict:
    return {name: statistics.median(m[name] for m in per_op) for name in UNITS}
