"""Solver for nonlinear multi-term fractional differential equations

    D^alpha y = f(t, D^alpha_1 y, ..., D^alpha_m y),  y^(k)(0) = b_k,

with Caputo derivatives, via the equivalent Volterra integral equation and
successive approximation, plus numerical checks of the identities the
reformulation rests on.
"""

from .fractional_ops import (
    FracIntegralOperator,
    Grid,
    SampledFunction,
    apply_integral,
    build_integral_operator,
    caputo_derivative,
    ceil_order,
    derivative_taylor_part,
    integral_node_values,
)
from .picard_solver import (
    ContractionWarning,
    ConvergenceReport,
    NonFiniteIterateError,
    SolutionTrajectory,
    estimate_contraction,
    picard_step,
    solve,
)
from .problem_model import (
    MultiTermProblem,
    ProblemValidationError,
    RhsDomainError,
    RhsSyntaxError,
    compile_rhs,
    estimate_lipschitz,
    eval_rhs,
    load_problem,
    parse_rhs,
    problem_from_dict,
    validate_problem,
)
from .special_functions import (
    MLParams,
    SeriesConvergenceError,
    mittag_leffler,
)
from .verification import (
    OriginDecayReport,
    ResidualReport,
    check_equivalence,
    composition_identity,
    initial_limit_checks,
    origin_decay,
)

__version__ = "0.1.0"

__all__ = [
    "FracIntegralOperator",
    "Grid",
    "SampledFunction",
    "apply_integral",
    "build_integral_operator",
    "caputo_derivative",
    "ceil_order",
    "derivative_taylor_part",
    "integral_node_values",
    "ContractionWarning",
    "ConvergenceReport",
    "NonFiniteIterateError",
    "SolutionTrajectory",
    "estimate_contraction",
    "picard_step",
    "solve",
    "MultiTermProblem",
    "ProblemValidationError",
    "RhsDomainError",
    "RhsSyntaxError",
    "compile_rhs",
    "estimate_lipschitz",
    "eval_rhs",
    "load_problem",
    "parse_rhs",
    "problem_from_dict",
    "validate_problem",
    "MLParams",
    "SeriesConvergenceError",
    "mittag_leffler",
    "OriginDecayReport",
    "ResidualReport",
    "check_equivalence",
    "composition_identity",
    "initial_limit_checks",
    "origin_decay",
]
