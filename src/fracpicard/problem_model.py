"""Problem description: multi-term equations, the right-hand-side
expression language, and validation.

A problem is

    D^alpha y(t) = f(t, D^alpha_1 y(t), ..., D^alpha_m y(t)),  t in (0, T],
    y^(k)(0) = b_k,  k = 0..n-1,  n = ceil(alpha),

with a strictly descending chain alpha > alpha_1 > ... > alpha_m >= 0 of
Caputo orders. The right-hand side is parsed from a small expression
grammar over t, z1..zm (z_h standing for the h-th inner derivative) and the
functions sin, cos, exp, log, abs, sqrt. When alpha_m = 0 the name y may be
used as an alias for the undifferentiated solution z_m.

Grammar (precedence low to high): + -, * /, unary -, ^ (right
associative, binding tighter than unary minus so -x^2 is -(x^2)).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .fractional_ops import ceil_order, is_integer_order

__all__ = [
    "RhsSyntaxError",
    "RhsDomainError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "RhsExpr",
    "parse_rhs",
    "compile_rhs",
    "eval_rhs",
    "rhs_derivatives",
    "estimate_lipschitz",
    "MultiTermProblem",
    "ProblemValidationError",
    "problem_issues",
    "validate_problem",
    "problem_from_dict",
    "load_problem",
]

_FUNCTIONS = ("sin", "cos", "exp", "log", "abs", "sqrt")


class RhsSyntaxError(ValueError):
    """Malformed right-hand-side text; pos is the 0-based offset."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class RhsDomainError(ArithmeticError):
    """Evaluation left the real domain (division by zero, log of a
    non-positive value, ...); carries the offending node position and the
    first time value at which it happened."""

    def __init__(self, message: str, pos: int, t_value: float) -> None:
        super().__init__(f"{message} at t = {t_value:g} (expression position {pos})")
        self.pos = pos
        self.t_value = t_value


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    operand: "RhsExpr"
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "RhsExpr"
    right: "RhsExpr"
    pos: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "RhsExpr"
    pos: int = field(default=0, compare=False, repr=False)


RhsExpr = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)


def _tokenize(text: str):
    """(kind, text, position) of each num, ident or op token, then the end.
    Every non-blank character starts a match, each where the last ended, so
    only trailing blanks match nothing; a bad match is an error."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise RhsSyntaxError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "end of input", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, m: int) -> None:
        self.m = m
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_close(self):
        """Take the ")" that closes a group or a call's argument."""
        kind, text, pos = self.advance()
        if kind == "op" and text == ",":
            raise RhsSyntaxError("functions take exactly one argument", pos)
        if kind != "op" or text != ")":
            raise RhsSyntaxError(f"expected ')', found {text!r}", pos)

    def parse(self) -> RhsExpr:
        expr = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise RhsSyntaxError(f"unexpected {text!r} after expression", pos)
        return expr

    def expr(self, level: int = 0) -> RhsExpr:
        """A left-associative chain of + - (level 0) or * / (level 1)."""
        operand = self.unary if level else (lambda: self.expr(1))
        node = operand()
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in ("+-", "*/")[level]:
                return node
            self.advance()
            node = BinOp(text, node, operand(), pos)

    def unary(self) -> RhsExpr:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary(), pos)
        return self.power()

    def power(self) -> RhsExpr:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.unary(), pos)
        return base

    def atom(self) -> RhsExpr:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise RhsSyntaxError(f"number {text} overflows a double", pos)
            return Num(value, pos)
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in _FUNCTIONS:
                    raise RhsSyntaxError(f"unknown function {text!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_close()
                return Call(text, arg, pos)
            return Var(self._check_var(text, pos), pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_close()
            return node
        raise RhsSyntaxError(f"expected a value, found {text!r}", pos)

    def _check_var(self, name: str, pos: int) -> str:
        if name == "t":
            return name
        if name == "y":
            if self.m < 1:
                raise RhsSyntaxError(
                    "y is only available when at least one inner derivative exists", pos
                )
            return name
        m = re.fullmatch(r"z(\d+)", name)
        if m is not None:
            k = int(m.group(1))
            if 1 <= k <= self.m:
                return f"z{k}"  # z01 is z1
            raise RhsSyntaxError(
                f"unknown identifier {name!r} (only z1..z{self.m} exist)", pos
            )
        raise RhsSyntaxError(f"unknown identifier {name!r}", pos)


def parse_rhs(text: str, m: int) -> RhsExpr:
    """Parse a right-hand-side expression over t, z1..zm (and y when it
    will later be bound to an order-0 term)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return _Parser(text, m).parse()


def _check(bad, message: str, pos: int, t: np.ndarray) -> None:
    """Raise RhsDomainError at the first node of t where bad holds."""
    if np.any(bad):
        flat_t = np.broadcast_to(t, np.shape(bad)).reshape(-1)
        raise RhsDomainError(message, pos, float(flat_t[np.argmax(np.reshape(bad, -1))]))


def _pow(a, b, pos, t):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = a**b
    if not np.isfinite(out).all():  # each domain error leaves nan or inf
        _check((a < 0.0) & (b != np.floor(b)), "negative base with non-integer exponent", pos, t)
        _check((a == 0.0) & (b < 0.0), "zero base with negative exponent", pos, t)
    return out


# An operation that checks its domain takes its operands, the expression
# position and the nodes of its operands, where a domain error finds its first
# bad t; _check returns None, so "_check(...) or x" is x once it has passed.
# The ufuncs check nothing and take the operands alone.
_OPS = {
    "neg": np.negative,
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": lambda a, b, pos, t: _check(b == 0.0, "division by zero", pos, t) or a / b,
    "^": _pow,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "exp": np.errstate(over="ignore")(lambda a, pos, t: np.exp(a)),
    "log": lambda a, pos, t: _check(a <= 0.0, "log of a non-positive value", pos, t) or np.log(a),
    "sqrt": lambda a, pos, t: _check(a < 0.0, "sqrt of a negative value", pos, t) or np.sqrt(a),
}


def _node(e: RhsExpr) -> tuple:
    """(operation name, operands) of an operation node."""
    if isinstance(e, BinOp):
        return e.op, (e.left, e.right)
    if isinstance(e, Neg):
        return "neg", (e.operand,)
    if isinstance(e, Call):
        return e.func, (e.arg,)
    raise TypeError(f"not an expression node: {e!r}")


def _compile(e: RhsExpr, t: np.ndarray):
    """The values of a subtree free of z, evaluated and domain-checked on
    the nodes t here; otherwise fn(sl, z), its values on t[sl] for the z
    arrays of those nodes."""
    if isinstance(e, Num):
        return np.full(t.shape, e.value)
    if isinstance(e, Var):
        if e.name == "t":
            return t + 0.0
        k = -1 if e.name == "y" else int(e.name[1:]) - 1
        unbound = "y is unbound (no inner derivatives)" if k < 0 else f"{e.name} is unbound"

        def var(sl, z):
            try:
                return z[k]
            except IndexError:
                raise RhsDomainError(unbound, e.pos, float(t[sl].flat[0])) from None

        return var
    name, kids = _node(e)
    op, pos = _OPS.get(name), e.pos
    if op is None:
        raise RhsDomainError(f"unknown function {name!r}", pos, float(t.flat[0]))
    parts = [_compile(kid, t) for kid in kids]
    checked = not isinstance(op, np.ufunc)
    if not any(callable(p) for p in parts):
        return op(*parts, pos, t) if checked else op(*parts)
    if checked:
        fns = [p if callable(p) else (lambda sl, z, v=p: v[sl]) for p in parts]
        return lambda sl, z: op(*[f(sl, z) for f in fns], pos, t[sl])
    if len(parts) == 1:
        (f,) = parts
        return lambda sl, z: op(f(sl, z))
    f, g = parts
    if not callable(f):
        return lambda sl, z: op(f[sl], g(sl, z))
    if not callable(g):
        return lambda sl, z: op(f(sl, z), g[sl])
    return lambda sl, z: op(f(sl, z), g(sl, z))


def compile_rhs(e: RhsExpr, t):
    """Evaluate e partially on the nodes t: every subtree free of z is
    evaluated and domain-checked here, once, and the rest becomes nested
    closures. Returns f(sl, z), the values of e on t[sl] for the z samples
    there. Every float operation is that of a whole-grid evaluation, so a
    slice gets its values bit for bit. A domain error raises here for a
    subtree free of z, else in f, naming its position and first bad t."""
    f = _compile(e, np.asarray(t, dtype=float))
    return f if callable(f) else (lambda sl, z: f[sl])


def eval_rhs(e: RhsExpr, t, z=()) -> np.ndarray:
    """Evaluate an expression at time(s) t with inner-derivative samples z
    (a sequence of m scalars or arrays shaped like t). Returns a float for
    scalar t, an ndarray otherwise. Domain violations raise RhsDomainError
    with the first offending time."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    z = [np.atleast_1d(np.asarray(zi, dtype=float)) for zi in z]
    # a copy always: the compiled form hands back z itself for e = z_k
    out = np.broadcast_to(compile_rhs(e, arr)(slice(None), z), arr.shape).astype(float)
    return float(out[0]) if np.ndim(t) == 0 else out


def _names(e: RhsExpr) -> set:
    """The names of the variables e reads."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Num):
        return set()
    return set().union(*(_names(kid) for kid in _node(e)[1]))


def _reads_z(e: RhsExpr) -> bool:
    """True when e reads an inner derivative (z_h or y)."""
    return bool(_names(e) - {"t"})


def _slope(e: RhsExpr, names: frozenset):
    """The tree of de/dv, v the variable that names call it by, where e is
    affine in z; None where it is not. Each new node takes the position of
    the node it differentiates."""
    if not _reads_z(e):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name in names else 0.0)
    name, kids = _node(e)
    if name not in ("neg", "+", "-", "*", "/"):
        return None  # a function or a power of a term that reads z
    slopes = [_slope(kid, names) for kid in kids]
    if None in slopes:
        return None
    if name == "neg":
        return Neg(slopes[0], e.pos)
    (u, v), (du, dv), pos = kids, slopes, e.pos
    if name in ("+", "-"):
        return BinOp(name, du, dv, pos)
    if name == "*" and not (_reads_z(u) and _reads_z(v)):
        return BinOp("*", du, v, pos) if _reads_z(u) else BinOp("*", u, dv, pos)
    if name == "/" and not _reads_z(v):
        return BinOp("/", du, v, pos)
    return None  # a product of two terms that read z, or a divisor that does


def rhs_derivatives(e: RhsExpr, m: int):
    """The trees of df/dz_h, h = 1..m, y counting as z_m, where f is affine
    in z; None where it is not. f counts as affine where only +, -, *, /
    and negation act on the terms that read z, no two of them multiply and
    none divides, so z1*z1, z1^1 and abs(z1) do not, while 0*z1 does. The
    trees are free of z and divide by nothing that f does not."""
    trees = tuple(_slope(e, frozenset({f"z{h}"} | ({"y"} if h == m else set())))
                  for h in range(1, m + 1))
    return None if None in trees else trees


def estimate_lipschitz(e: RhsExpr, t_range, z_box) -> float:
    """Empirical Lipschitz constant of f(t, z) in z, measured in the L1
    norm on z: max over sampled pairs of |f(t,z) - f(t,z')| / ||z - z'||_1.

    Half the pairs differ in every coordinate, half in a single coordinate
    (to catch partial derivatives a fully random pair averages away). Every
    call draws from seed 0, so equal inputs agree. Domain errors propagate."""
    m = len(z_box)
    if m == 0:
        return 0.0
    lo = np.array([float(a) for a, _ in z_box])
    hi = np.array([float(b) for _, b in z_box])
    if np.any(hi < lo):
        raise ValueError("z_box bounds must satisfy lo <= hi")
    samples = 400  # pairs, drawn from seed 0
    rng = np.random.default_rng(0)
    ts = rng.uniform(float(t_range[0]), float(t_range[1]), size=samples)
    za = rng.uniform(lo, hi, size=(samples, m))
    zb = rng.uniform(lo, hi, size=(samples, m))
    single = np.arange(samples) % 2 == 1
    coords = rng.integers(0, m, size=samples)
    keep = np.ones((samples, m), dtype=bool)
    keep[single] = np.arange(m)[None, :] != coords[single, None]
    zb = np.where(keep & single[:, None], za, zb)
    fa = eval_rhs(e, ts, [za[:, j] for j in range(m)])
    fb = eval_rhs(e, ts, [zb[:, j] for j in range(m)])
    dz = np.sum(np.abs(za - zb), axis=1)
    ok = dz > 0.0
    if not np.any(ok):
        return 0.0
    return float(np.max(np.abs(fa - fb)[ok] / dz[ok]))


@dataclass(frozen=True)
class MultiTermProblem:
    """One multi-term initial value problem on [0, horizon].

    derivative_orders are the inner orders alpha_1 > ... > alpha_m >= 0
    appearing in f; initial_values are b_0..b_(n-1). gamma declares the
    admissible strength of the t -> 0 singularity of D^alpha y.
    """

    alpha: float
    derivative_orders: tuple
    initial_values: tuple
    horizon: float
    rhs: RhsExpr
    gamma: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "derivative_orders", tuple(float(a) for a in self.derivative_orders)
        )
        object.__setattr__(
            self, "initial_values", tuple(float(b) for b in self.initial_values)
        )

    @property
    def n(self) -> int:
        return ceil_order(self.alpha)

    @property
    def m(self) -> int:
        return len(self.derivative_orders)


class ProblemValidationError(ValueError):
    """Raised by validate_problem; issues is a list of (code, message)."""

    def __init__(self, issues) -> None:
        lines = "; ".join(f"[{code}] {msg}" for code, msg in issues)
        super().__init__(f"invalid problem: {lines}")
        self.issues = list(issues)


def problem_issues(p: MultiTermProblem) -> list:
    """All violated invariants as (code, message) pairs, empty when valid."""
    issues = []
    if not np.isfinite(p.alpha):
        issues.append(("alpha_finite", f"alpha must be finite, got {p.alpha}"))
        return issues
    if not p.alpha > 0.0:
        issues.append(("alpha_positive", f"alpha must be positive, got {p.alpha}"))
        return issues
    try:  # Gamma(alpha + 1) bounds every Gamma and factorial value the solve takes
        math.gamma(p.alpha + 1.0)
    except OverflowError:
        issues.append(("alpha_range", f"alpha = {p.alpha} is too large: Gamma(alpha + 1) "
                       "overflows a double (alpha must stay below about 170.6)"))
    if not np.isfinite(p.horizon):
        issues.append(("horizon_finite", f"horizon must be finite, got {p.horizon}"))
    elif not p.horizon > 0.0:
        issues.append(("horizon_positive", f"horizon must be positive, got {p.horizon}"))
    chain = (p.alpha,) + p.derivative_orders
    for i in range(len(chain) - 1):
        if not chain[i] > chain[i + 1]:
            issues.append(
                (
                    "order_chain",
                    f"orders must descend strictly: position {i} has "
                    f"{chain[i]} followed by {chain[i + 1]}",
                )
            )
            break
    if p.derivative_orders and p.derivative_orders[-1] < 0.0:
        issues.append(("order_chain", "inner orders must be non-negative"))
    n = p.n
    if len(p.initial_values) != n:
        issues.append(
            (
                "initial_count",
                f"order {p.alpha} requires exactly {n} initial values, "
                f"got {len(p.initial_values)}",
            )
        )
    if not np.all(np.isfinite(p.initial_values)):
        issues.append(
            ("initial_finite", f"initial_values must be finite, got {list(p.initial_values)}")
        )
    bound = p.alpha - n + 1.0
    if not (0.0 <= p.gamma < bound):
        issues.append(
            (
                "gamma_range",
                f"gamma must satisfy 0 <= gamma < alpha - n + 1 = {bound:g}, got {p.gamma}",
            )
        )
    for a in p.derivative_orders:
        if not p.alpha - a > p.gamma:
            issues.append(
                (
                    "inner_singular",
                    f"inner derivative of order {a} would be singular: "
                    f"alpha - alpha_h = {p.alpha - a:g} must exceed gamma = {p.gamma:g}",
                )
            )
            break
    # a valid chain ends at an order >= 0, so ceil_order takes every order in it
    chain_ok = all(code != "order_chain" for code, _ in issues)
    if chain_ok and p.m >= 1 and not is_integer_order(p.alpha):
        a1 = p.derivative_orders[0]
        if not n > ceil_order(a1):
            issues.append(
                (
                    "inner_order_bound",
                    f"leading inner order {a1} demands as many initial values as "
                    f"alpha = {p.alpha} provides (need ceil(alpha) > ceil(alpha_1))",
                )
            )
    names = _names(p.rhs)
    if "y" in names and (p.m == 0 or p.derivative_orders[-1] != 0.0):
        issues.append(("y_alias", "y may only appear when the last inner order is 0"))
    k = max((int(v[1:]) for v in names if v.startswith("z")), default=0)
    if k > p.m:
        issues.append(
            ("z_index", f"rhs references z{k} but only {p.m} inner derivatives exist")
        )
    return issues


def validate_problem(p: MultiTermProblem) -> MultiTermProblem:
    """Check every invariant; returns the problem unchanged or raises
    ProblemValidationError listing all violations by code."""
    issues = problem_issues(p)
    if issues:
        raise ProblemValidationError(issues)
    return p


_PROBLEM_KEYS = {
    "alpha",
    "derivative_orders",
    "initial_values",
    "horizon",
    "gamma",
    "rhs",
}
_REQUIRED_KEYS = _PROBLEM_KEYS - {"gamma"}


def problem_from_dict(d: dict) -> MultiTermProblem:
    """Build and validate a problem from a plain dict (the JSON schema)."""
    unknown = sorted(set(d) - _PROBLEM_KEYS)
    if unknown:
        raise ValueError(f"unknown problem keys: {', '.join(unknown)}")
    missing = sorted(_REQUIRED_KEYS - set(d))
    if missing:
        raise ValueError(f"missing problem keys: {', '.join(missing)}")

    def typed(key: str, convert):
        try:
            return convert(d[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"problem key {key!r} has a wrongly typed value: {exc}") from None

    def floats(v) -> tuple:
        if isinstance(v, str):
            raise TypeError(f"expected a list of numbers, got {v!r}")
        return tuple(float(x) for x in v)

    orders = typed("derivative_orders", floats)
    rhs = d["rhs"]
    if isinstance(rhs, str):
        rhs = parse_rhs(rhs, len(orders))
    elif not isinstance(rhs, RhsExpr):
        raise ValueError(f"problem key 'rhs' must be an expression string, got {rhs!r}")
    p = MultiTermProblem(
        alpha=typed("alpha", float),
        derivative_orders=orders,
        initial_values=typed("initial_values", floats),
        horizon=typed("horizon", float),
        rhs=rhs,
        gamma=typed("gamma", float) if "gamma" in d else 0.0,
    )
    return validate_problem(p)


def load_problem(path) -> MultiTermProblem:
    """Load a problem from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("problem file must contain a JSON object")
    return problem_from_dict(data)
