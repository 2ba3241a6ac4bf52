"""Parser, evaluator, Lipschitz probe and problem validation tests.

The evaluator oracle lives in tests/_shunting_yard.py: an RPN evaluator
sharing no code with the package's recursive-descent parser.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpicard.problem_model import (
    BinOp,
    Call,
    MultiTermProblem,
    Neg,
    Num,
    ProblemValidationError,
    RhsDomainError,
    RhsSyntaxError,
    Var,
    compile_rhs,
    estimate_lipschitz,
    eval_rhs,
    load_problem,
    parse_rhs,
    problem_from_dict,
    problem_issues,
    rhs_derivatives,
    validate_problem,
)

from _shunting_yard import evaluate as oracle_eval


class TestParser:
    def test_number_literals(self):
        assert parse_rhs("2", 0) == Num(2.0)
        assert parse_rhs("2.5e-3", 0) == Num(2.5e-3)
        assert parse_rhs(".5", 0) == Num(0.5)
        assert parse_rhs("1E2", 0) == Num(100.0)

    def test_precedence_chain(self):
        # 1 + 2*t^3 groups as 1 + (2 * (t^3))
        e = parse_rhs("1+2*t^3", 0)
        assert e == BinOp("+", Num(1.0), BinOp("*", Num(2.0), BinOp("^", Var("t"), Num(3.0))))

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_rhs("-t^2", 0) == Neg(BinOp("^", Var("t"), Num(2.0)))

    def test_unary_minus_in_exponent(self):
        assert parse_rhs("2^-3", 0) == BinOp("^", Num(2.0), Neg(Num(3.0)))

    def test_power_right_associative(self):
        assert parse_rhs("2^t^3", 0) == BinOp("^", Num(2.0), BinOp("^", Var("t"), Num(3.0)))

    def test_subtraction_left_associative(self):
        e = parse_rhs("1-2-3", 0)
        assert e == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))

    def test_parentheses_override(self):
        e = parse_rhs("(1+t)*2", 0)
        assert e == BinOp("*", BinOp("+", Num(1.0), Var("t")), Num(2.0))

    def test_function_call(self):
        assert parse_rhs("sin(t)", 0) == Call("sin", Var("t"))
        assert parse_rhs("sqrt(abs(z1))", 1) == Call("sqrt", Call("abs", Var("z1")))

    def test_z_variables_bounded_by_m(self):
        assert parse_rhs("z2", 3) == parse_rhs("z02", 3) == Var("z2")
        for name in ("z3", "z03"):  # an error names the variable as written
            with pytest.raises(RhsSyntaxError) as exc:
                parse_rhs(name, 2)
            assert f"{name!r}" in str(exc.value)

    def test_y_alias_needs_inner_terms(self):
        assert parse_rhs("y", 1) == Var("y")
        with pytest.raises(RhsSyntaxError):
            parse_rhs("y", 0)

    def test_unknown_identifier(self):
        with pytest.raises(RhsSyntaxError) as exc:
            parse_rhs("2*blob", 0)
        assert "unknown identifier" in str(exc.value)
        assert exc.value.pos == 2

    def test_unknown_function(self):
        with pytest.raises(RhsSyntaxError) as exc:
            parse_rhs("tan(t)", 0)
        assert "unknown function" in str(exc.value)

    def test_arity_error(self):
        with pytest.raises(RhsSyntaxError) as exc:
            parse_rhs("sin(t, 1)", 0)
        assert "exactly one argument" in str(exc.value)

    def test_syntax_error_positions(self):
        with pytest.raises(RhsSyntaxError) as exc:
            parse_rhs("1 + * 2", 0)
        assert exc.value.pos == 4
        with pytest.raises(RhsSyntaxError) as exc:
            parse_rhs("(1+2", 0)
        assert exc.value.pos == 4
        with pytest.raises(RhsSyntaxError, match="1e999 overflows a double") as exc:
            parse_rhs("2*1e999", 0)
        assert exc.value.pos == 2

    def test_trailing_garbage(self):
        with pytest.raises(RhsSyntaxError):
            parse_rhs("1 2", 0)
        with pytest.raises(RhsSyntaxError):
            parse_rhs("t)", 0)

    def test_bad_character(self):
        with pytest.raises(RhsSyntaxError) as exc:
            parse_rhs("1 @ 2", 0)
        assert exc.value.pos == 2

    def test_empty_input(self):
        with pytest.raises(RhsSyntaxError):
            parse_rhs("", 0)

    def test_positions_do_not_affect_equality(self):
        assert parse_rhs("1+t", 0) == parse_rhs("1 + t", 0)


def _expr_strategy(m: int = 2, max_depth: int = 4):
    numbers = st.floats(min_value=0.0, max_value=9.5, allow_nan=False).map(
        lambda v: Num(round(v, 3))
    )
    variables = st.sampled_from([Var("t")] + [Var(f"z{k + 1}") for k in range(m)])
    leaves = st.one_of(numbers, variables)

    def extend(children):
        return st.one_of(
            st.builds(lambda a, b, op: BinOp(op, a, b), children, children,
                      st.sampled_from(["+", "-", "*", "/", "^"])),
            st.builds(Neg, children),
            st.builds(lambda f, a: Call(f, a), st.sampled_from(["sin", "cos", "exp", "abs"]),
                      children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestEval:
    def test_scalar_and_array_agree(self):
        e = parse_rhs("sin(t)*z1 + exp(-t)/(1+z2^2)", 2)
        t = np.linspace(0.0, 2.0, 11)
        z1 = np.cos(t)
        z2 = t - 1.0
        vec = eval_rhs(e, t, [z1, z2])
        for i in range(t.size):
            scalar = eval_rhs(e, float(t[i]), [float(z1[i]), float(z2[i])])
            assert scalar == pytest.approx(float(vec[i]), rel=1e-15, abs=1e-15)

    def test_constant_broadcasts(self):
        e = parse_rhs("3.5", 0)
        out = eval_rhs(e, np.linspace(0, 1, 5))
        assert out.shape == (5,)
        assert np.all(out == 3.5)
        # so does a scalar z, under a power whose exponent reads t
        t = np.linspace(0.5, 2.0, 4)
        assert np.array_equal(eval_rhs(parse_rhs("z1^t", 1), t, [2.0]), 2.0**t)

    def test_y_aliases_last_inner_term(self):
        e = parse_rhs("y + z1", 2)
        assert eval_rhs(e, 0.0, [2.0, 10.0]) == 12.0

    def test_division_by_zero_reports_time(self):
        e = parse_rhs("1/(t-0.5)", 0)
        with pytest.raises(RhsDomainError) as exc:
            eval_rhs(e, np.array([0.0, 0.5, 1.0]))
        assert exc.value.t_value == 0.5

    def test_log_domain(self):
        e = parse_rhs("log(t)", 0)
        with pytest.raises(RhsDomainError):
            eval_rhs(e, np.array([0.0, 1.0]))
        assert eval_rhs(e, math.e) == pytest.approx(1.0)

    def test_sqrt_domain(self):
        e = parse_rhs("sqrt(t-1)", 0)
        with pytest.raises(RhsDomainError) as exc:
            eval_rhs(e, 0.25)
        assert exc.value.t_value == 0.25

    def test_negative_base_fractional_exponent(self):
        e = parse_rhs("(0-2)^t", 0)
        assert eval_rhs(e, 2.0) == 4.0  # integer exponent is fine
        with pytest.raises(RhsDomainError):
            eval_rhs(e, 0.5)

    def test_zero_base_negative_exponent(self):
        e = parse_rhs("t^-1", 0)
        with pytest.raises(RhsDomainError):
            eval_rhs(e, np.array([0.0, 1.0]))

    def test_matches_rpn_oracle_on_fixed_cases(self):
        cases = [
            ("1+2*3^2", {}),
            ("-2^2", {}),
            ("2^-2", {}),
            ("1-2-3", {}),
            ("12/4/3", {}),
            ("2*-3", {}),
            ("sin(t)^2+cos(t)^2", {"t": 0.7}),
            ("exp(-t)*z1 - abs(z2)/4", {"t": 1.2, "z1": -0.3, "z2": -8.0}),
            ("sqrt(t)*(1 - z1^3)", {"t": 4.0, "z1": 0.5}),
        ]
        for text, env in cases:
            m = sum(1 for k in env if k.startswith("z"))
            e = parse_rhs(text, m)
            z = [env[f"z{k + 1}"] for k in range(m)]
            ours = eval_rhs(e, env.get("t", 0.0), z)
            ref = oracle_eval(text, env)
            assert ours == pytest.approx(ref, rel=1e-13, abs=1e-13)


class TestLipschitz:
    def test_linear_single_term(self):
        e = parse_rhs("-z1", 1)
        L = estimate_lipschitz(e, (0.0, 1.0), [(-2.0, 2.0)])
        assert L == pytest.approx(1.0, rel=1e-9)

    def test_picks_up_largest_coefficient(self):
        e = parse_rhs("2*z1 + 3*z2", 2)
        L = estimate_lipschitz(e, (0.0, 1.0), [(-1.0, 1.0), (-1.0, 1.0)])
        # L1 norm in z: the sharp constant is max(|2|, |3|)
        assert L == pytest.approx(3.0, rel=1e-6)

    def test_smooth_nonlinearity(self):
        e = parse_rhs("sin(z1)", 1)
        L = estimate_lipschitz(e, (0.0, 1.0), [(-0.2, 0.2)])
        assert 0.9 <= L <= 1.0 + 1e-9

    def test_no_z_dependence(self):
        e = parse_rhs("t^2", 1)
        assert estimate_lipschitz(e, (0.0, 1.0), [(-1.0, 1.0)]) == 0.0
        assert estimate_lipschitz(parse_rhs("t", 0), (0.0, 1.0), []) == 0.0

    def test_seed_determinism(self):
        e = parse_rhs("z1^2", 1)
        a = estimate_lipschitz(e, (0.0, 1.0), [(0.0, 2.0)])
        b = estimate_lipschitz(e, (0.0, 1.0), [(0.0, 2.0)])
        assert a == b

    def test_domain_error_propagates(self):
        e = parse_rhs("log(z1)", 1)
        with pytest.raises(RhsDomainError):
            estimate_lipschitz(e, (0.0, 1.0), [(-1.0, 1.0)])


class TestCompiledRhs:
    """compile_rhs evaluates the z-free subtrees once per grid; the solver
    then calls the rest on one window of nodes at a time."""

    @given(_expr_strategy(), st.integers(min_value=1, max_value=70))
    @settings(max_examples=300, deadline=None)
    def test_windows_match_the_whole_grid_bitwise(self, e, width):
        t = np.linspace(0.0, 3.0, 301)
        z = [np.sin(7.0 * t) - 0.3, 2.0 - t**2]
        with np.errstate(all="ignore"):
            try:
                whole = eval_rhs(e, t, z)
                f = compile_rhs(e, t)
                cuts = range(0, t.size, width)
                parts = [f(slice(a, a + width), [zi[a : a + width] for zi in z]) for a in cuts]
            except RhsDomainError:
                return  # the strategy draws divisions by zero and such
        got = np.concatenate(parts)
        assert np.array_equal(got, whole, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(whole))

    def test_eval_rhs_never_returns_its_z(self):
        # the compiled z1 hands back z itself; eval_rhs returns a copy
        t = np.linspace(0.0, 1.0, 5)
        z = t**2
        assert compile_rhs(parse_rhs("z1", 1), t)(slice(None), [z]) is z
        out = eval_rhs(parse_rhs("z1", 1), t, [z])
        assert not np.shares_memory(out, z) and np.array_equal(out, z)

    def test_z_free_domain_error_raises_at_compile_time(self):
        e = parse_rhs("z1 + log(t - 0.25)", 1)
        t = np.linspace(0.0, 1.0, 9)
        with pytest.raises(RhsDomainError) as exc:
            compile_rhs(e, t)
        assert exc.value.pos == 5
        assert exc.value.t_value == 0.0

    def test_z_dependent_domain_error_raises_at_call_time(self):
        # a power looks for its domain errors only where its value is not
        # finite; it names them as eagerly as sqrt names its own
        t = np.linspace(0.0, 1.0, 9)
        for text, bad, message, pos in [
            ("t + sqrt(z1)", -1.0, "sqrt of a negative value", 4),
            ("t + z1^0.5", -1.0, "negative base with non-integer exponent", 6),
            ("t + z1^-1", 0.0, "zero base with negative exponent", 6),
        ]:
            f = compile_rhs(parse_rhs(text, 1), t)
            z1 = np.ones(9)
            z1[6:] = bad
            assert np.array_equal(f(slice(0, 4), [z1[:4]]), t[:4] + 1.0)
            with pytest.raises(RhsDomainError) as exc:
                f(slice(4, 9), [z1[4:]])
            assert str(exc.value) == f"{message} at t = 0.75 (expression position {pos})"
            assert exc.value.pos == pos
            assert exc.value.t_value == t[6]
        # an overflowing power is no domain error: it returns inf
        f = compile_rhs(parse_rhs("t + z1^400", 1), t)
        assert np.array_equal(f(slice(4, 9), [np.full(5, 10.0)]), np.full(5, np.inf))

    def test_singular_solve_never_evaluates_t0(self):
        # log(t) and t^(-0.2) fail at t = 0; with gamma > 0 the solver
        # compiles and calls f on the nodes past t_0 only
        from fracpicard.fractional_ops import Grid
        from fracpicard.picard_solver import rhs_samples, solve

        p = problem_from_dict({
            "alpha": 0.5, "derivative_orders": [0.0], "initial_values": [1.0],
            "horizon": 1.0, "gamma": 0.2, "rhs": "t^(-0.2) + 0.1*log(t)*z1",
        })
        grid = Grid(1.0, 64)
        traj = solve(p, grid)
        assert traj.report.converged
        assert np.isnan(traj.phi.values[0]) and np.all(np.isfinite(traj.phi.values[1:]))
        assert np.isnan(rhs_samples(p, grid, traj.inner).values[0])
        with pytest.raises(RhsDomainError):
            compile_rhs(p.rhs, grid.nodes)


class TestDerivatives:
    """rhs_derivatives against central differences, and affine detection."""

    # affine in z, with every function of the grammar on t
    @pytest.mark.parametrize("text", [
        "z1 + t*z2", "z1 - 3*z2", "-(z1*t) - z2", "z1/(t + 1) - z2/3",
        "sin(t)*z1 - cos(t)*z2", "exp(-t)*(z1 + 2*z2) + log(t)",
        "sqrt(t)*y - abs(t - 1)*z1", "t^(-0.3)*z1 + 2^t", "(z1 - 0.5*z2)/sqrt(t)*3",
        "z01 - 3*z02",
    ])
    def test_matches_central_differences(self, text):
        rng = np.random.default_rng(7)
        t = rng.uniform(0.1, 2.0, 50)
        z = [rng.uniform(-2.0, 2.0, 50), rng.uniform(-2.0, 2.0, 50)]
        expr = parse_rhs(text, 2)
        h = 1e-6
        for k, tree in enumerate(rhs_derivatives(expr, 2)):
            up = [zi + h * (i == k) for i, zi in enumerate(z)]
            down = [zi - h * (i == k) for i, zi in enumerate(z)]
            central = (eval_rhs(expr, t, up) - eval_rhs(expr, t, down)) / (2.0 * h)
            exact = eval_rhs(tree, t, z)
            assert np.allclose(exact, central, rtol=1e-6, atol=1e-6)

    def test_y_is_the_last_inner_derivative(self):
        d1, d2 = rhs_derivatives(parse_rhs("3*z1 + t*y", 2), 2)
        t = np.array([0.5, 2.0])
        assert list(eval_rhs(d1, t)) == [3.0, 3.0] and list(eval_rhs(d2, t)) == [0.5, 2.0]

    @pytest.mark.parametrize("text", ["-8*z1", "sin(t)*z1 - t", "z1/3 + z2", "t^(-0.3) + 0*z1"])
    def test_affine(self, text):
        # each tree is free of z: it evaluates with no z bound
        for d in rhs_derivatives(parse_rhs(text, 2), 2):
            assert np.isfinite(eval_rhs(d, np.array([0.5, 2.0]))).all()

    @pytest.mark.parametrize("text", [
        "z1*z1", "z1^2", "exp(z1)", "abs(z1)", "2^z1", "t/z1", "sin(z1)", "log(z2)",
        "sqrt(z1)", "cos(y)", "3 + t*(z1*z2)",
    ])
    def test_not_affine(self, text):
        assert rhs_derivatives(parse_rhs(text, 2), 2) is None


def _valid_dict(**overrides):
    base = {
        "alpha": 1.5,
        "derivative_orders": [0.5],
        "initial_values": [1.0, 0.0],
        "horizon": 1.0,
        "gamma": 0.0,
        "rhs": "-z1",
    }
    base.update(overrides)
    return base


class TestProblemValidation:
    def test_valid_problem_passes(self):
        p = problem_from_dict(_valid_dict())
        assert p.n == 2
        assert p.m == 1

    @pytest.mark.parametrize(
        "overrides,code",
        [
            (dict(alpha=0.0), "alpha_positive"),
            (dict(alpha=-1.5), "alpha_positive"),
            (dict(horizon=0.0), "horizon_positive"),
            (dict(derivative_orders=[1.5]), "order_chain"),
            (dict(derivative_orders=[1.7]), "order_chain"),
            (dict(derivative_orders=[0.5, 0.5], rhs="z1+z2"), "order_chain"),
            (dict(derivative_orders=[0.5, -0.25], rhs="z1"), "order_chain"),
            (dict(initial_values=[1.0]), "initial_count"),
            (dict(initial_values=[1.0, 0.0, 0.0]), "initial_count"),
            (dict(gamma=0.5), "gamma_range"),
            (dict(gamma=-0.1), "gamma_range"),
            (dict(derivative_orders=[1.2], rhs="z1"), "inner_order_bound"),
            (dict(rhs="y"), "y_alias"),
            (dict(alpha=1.0, derivative_orders=[0.9], initial_values=[1.0], gamma=0.5),
             "inner_singular"),
            (dict(initial_values=[float("nan"), 0.0]), "initial_finite"),
            (dict(initial_values=[1.0, float("-inf")]), "initial_finite"),
            (dict(horizon=float("inf")), "horizon_finite"),
            (dict(alpha=float("inf")), "alpha_finite"),
            (dict(horizon=float("nan")), "horizon_finite"),
            (dict(alpha=float("nan")), "alpha_finite"),
            (dict(alpha=171.5, initial_values=[1.0] + [0.0] * 171), "alpha_range"),
        ],
    )
    def test_violations_by_code(self, overrides, code):
        d = _valid_dict(**overrides)
        p = MultiTermProblem(
            alpha=d["alpha"],
            derivative_orders=tuple(d["derivative_orders"]),
            initial_values=tuple(d["initial_values"]),
            horizon=d["horizon"],
            rhs=parse_rhs(d["rhs"], len(d["derivative_orders"])),
            gamma=d["gamma"],
        )
        codes = [c for c, _ in problem_issues(p)]
        assert code in codes
        with pytest.raises(ProblemValidationError):
            validate_problem(p)

    def test_integer_alpha_accepts_integer_inner(self):
        p = problem_from_dict(
            _valid_dict(alpha=2.0, derivative_orders=[1.0], rhs="-z1")
        )
        assert problem_issues(p) == []

    def test_integer_alpha_skips_inner_ceiling_rule(self):
        # n = n_1 = 2 is allowed when alpha itself is an integer
        p = problem_from_dict(
            _valid_dict(alpha=2.0, derivative_orders=[1.5], rhs="z1")
        )
        assert problem_issues(p) == []

    def test_y_alias_allowed_with_order_zero_tail(self):
        p = problem_from_dict(
            _valid_dict(derivative_orders=[0.0], rhs="-y")
        )
        assert problem_issues(p) == []

    def test_gamma_upper_bound_depends_on_alpha(self):
        # alpha = 0.5: n = 1, so gamma may go up to 0.5
        p = problem_from_dict(
            _valid_dict(alpha=0.5, derivative_orders=[0.0], initial_values=[1.0],
                        gamma=0.4, rhs="-z1")
        )
        assert p.gamma == 0.4

    def test_z_index_checked_against_m(self):
        expr = parse_rhs("z2", 2)
        p = MultiTermProblem(
            alpha=1.5,
            derivative_orders=(0.5,),
            initial_values=(1.0, 0.0),
            horizon=1.0,
            rhs=expr,
        )
        codes = [c for c, _ in problem_issues(p)]
        assert "z_index" in codes


class TestProblemIO:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError) as exc:
            problem_from_dict(_valid_dict(extra=1))
        assert "extra" in str(exc.value)

    def test_missing_keys_rejected(self):
        d = _valid_dict()
        del d["rhs"]
        with pytest.raises(ValueError) as exc:
            problem_from_dict(d)
        assert "rhs" in str(exc.value)

    @pytest.mark.parametrize("key,value", [
        ("alpha", None),
        ("alpha", "fast"),
        ("derivative_orders", 5),
        ("derivative_orders", "05"),
        ("initial_values", [None, 0.0]),
        ("horizon", [1.0]),
        ("gamma", None),
        ("rhs", 3),
    ])
    def test_wrongly_typed_value_names_key(self, key, value):
        with pytest.raises(ValueError) as exc:
            problem_from_dict(_valid_dict(**{key: value}))
        assert repr(key) in str(exc.value)

    def test_gamma_defaults_to_zero(self):
        d = _valid_dict()
        del d["gamma"]
        assert problem_from_dict(d).gamma == 0.0

    def test_load_problem_round_trip(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_valid_dict()))
        p = load_problem(path)
        assert p.alpha == 1.5
        assert p.horizon == 1.0

    def test_load_problem_rejects_non_object(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_problem(path)
