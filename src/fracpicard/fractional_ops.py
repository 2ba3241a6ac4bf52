"""Discrete fractional integrals and Caputo derivatives on one-sided grids.

The fractional integral I^beta is discretized by product trapezoidal
quadrature: on each mesh cell the regular factor is replaced by its linear
interpolant and the moments of the kernel (t_n - tau)^(beta-1) are computed
in closed form, so the rule is exact (to round-off) on functions that are
piecewise linear over the grid. The moment formulas are written in
difference form (expm1/log1p plus a series branch) because the naive
power-difference form loses eps*(t_n/h) relative digits and cannot hold the
1e-13 exactness this package promises.

Inputs carrying a power singularity t^(-g) at the origin are handled by
applying the same construction to the bounded factor t^g f(t) against the
weight (t_n - tau)^(beta-1) tau^(-g), whose cell moments are incomplete beta
functions B_x(1-g, beta) and B_x(2-g, beta), the second from the first by
B_x(p+1, q) = (p B_x(p, q) - x^p (1-x)^q) / (p+q) (DLMF 8.17.20): one series
per node. On a uniform grid that holds for the first _FAR_CELL cells only;
from there on tau^(-g) is a series in (tau - t_j)/t_j, so the moments are
Toeplitz and each block of the table is one matrix product (_far_table),
without the N^2 eps that differencing B_x costs far below the diagonal. The
series are in an argument <= 1/2, summed to a quarter ulp. The weighted
rule is exact on t^(-g) times piecewise-linear inputs, as small-t decay
studies need. Its table acts on f itself: column j >= 1 carries t_j^g, and
t^g f at t_0, extrapolated from t_1 and t_2, is folded into columns 1 and
2, so column 0 is zero.

Uniform grids store the quadrature as an O(N) convolution stencil and a
plan of its Toeplitz product. Every apply on them takes the steps of the
blocked history scheme (Hairer, Lubich & Schlichte 1985) that a marching
solve takes: history, push_history of the _BLOCK-node block starts, close
for each block's own share. A whole apply pushes all starts of one level
at once (one batched FFT per level above _DIRECT_PUSH) and closes every
full block in one product; O(N log^2 N), about 0.8 ms at N = 8192, with
every output at the relative accuracy of the direct sum, and every push
bitwise the one a march makes. Graded grids and
weighted samples use dense N x (N+1) tables, row r - 1 for node t_r, one
product per whole apply; a solve marches over those with the same steps.
So a solve costs about one apply plus its per-window iterations. A Grid is the
value (horizon, N, grading); each dense table is built once per grid object,
order and exponent (0 for the plain table) and kept on the grid, so every
operator of that order on that grid shares it, and it lives as long as the
grid. Graded tables are built in blocks of up to _ROW_BLOCK rows, each over
the cells left of its last row only.

Building an operator computes nothing but 1/gamma(beta): each part of the
plain rule is built on its first read, each weighted table on its first
use. So an operator that only meets singular samples, like I^alpha of a
gamma > 0 solve and its checks, never builds the plain rule. A uniform
rule is often first read inside a marching solve, so its cell moments are
summed in place, on a few arrays of N floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
# imported here, not on first use: numpy loads numpy.fft lazily, and that
# would put the module's allocations inside the first apply
from numpy.fft import irfft, rfft

__all__ = [
    "Grid",
    "NonFiniteIterateError",
    "SampledFunction",
    "FracIntegralOperator",
    "build_integral_operator",
    "apply_integral",
    "integral_node_values",
    "caputo_derivative",
    "ceil_order",
    "derivative_taylor_part",
]

_INTEGER_SNAP = 1e-9
# side of the blocks a uniform apply and a marching solve go through
_BLOCK = 64
# longest level push_history sums directly (scripts/apply_scaling.py times it)
_DIRECT_PUSH = 128
# rows per block of a dense table build
_ROW_BLOCK = 64
# first cell of a uniform weighted table summed from Toeplitz moments, and
# the terms of its series in 1/j: _FAR_CELL^-_FAR_TERMS <= 2^-55
_FAR_CELL = 8
_FAR_TERMS = 19


class NonFiniteIterateError(RuntimeError):
    """An iterate (overflow in the right-hand side) or the apply of finite
    samples (overflow in the weights) left the finite range."""


def _finite(vals: np.ndarray, t: np.ndarray, what: str = "right-hand side produced") -> np.ndarray:
    if not np.isfinite(vals).all():  # vals: one row or several of samples on t
        t_bad = float(t[np.argmax(~np.isfinite(vals).reshape(-1, t.size).all(axis=0))])
        raise NonFiniteIterateError(f"{what} a non-finite value at t = {t_bad:g}")
    return vals


def ceil_order(alpha: float) -> int:
    """Number of initial conditions attached to a derivative of order alpha:
    the smallest integer n >= 0 with n - 1 < alpha <= n (so n = alpha when
    alpha is an integer, and 0 for order 0)."""
    if not alpha >= 0.0:
        raise ValueError(f"order must be non-negative, got {alpha}")
    if is_integer_order(alpha):
        return int(round(alpha))
    return int(math.ceil(alpha))


def is_integer_order(alpha: float) -> bool:
    """True when alpha is (numerically) a positive integer."""
    return alpha > 0.0 and abs(alpha - round(alpha)) < _INTEGER_SNAP


@dataclass(frozen=True)
class Grid:
    """Graded one-sided mesh t_i = T (i/N)^grading, i = 0..N, the value
    Grid(horizon T, n_intervals N, grading).

    grading = 1 is the uniform mesh. Grading > 1 clusters nodes near the
    origin, which is where solutions of fractional problems lose
    smoothness. Grids compare and hash by (horizon, n_intervals, grading).
    _tables holds the dense tables built on this grid object,
    {order: {exponent g: table}}, the plain table of a graded grid under
    g = 0; they live as long as the grid, and an equal grid starts with
    its own.
    """

    horizon: float
    n_intervals: int
    grading: float = 1.0
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            n = operator.index(self.n_intervals)
        except TypeError:
            raise TypeError(f"n_intervals must be an integer, got {self.n_intervals!r}") from None
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if n < 2:
            raise ValueError("need at least 2 intervals")
        if not 1.0 <= self.grading < math.inf:
            raise ValueError(f"grading must be finite and >= 1, got {self.grading}")
        nodes = self.horizon * (np.arange(n + 1) / n) ** self.grading
        if not np.all(np.diff(nodes) > 0.0):  # a steep grading underflows t_1
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "n_intervals", n)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, horizon: float, n_intervals: int) -> "Grid":
        return cls(horizon, n_intervals)

    @property
    def is_uniform(self) -> bool:
        return self.grading == 1.0


@dataclass(frozen=True)
class SampledFunction:
    """Node samples of a function on a Grid, one value per node t_0..t_N.

    singular_exponent g in [0, 1) declares that the function behaves like
    t^(-g) near the origin; for g > 0 the value at t_0 = 0 does not exist
    and values[0] must be nan.
    """

    grid: Grid
    values: np.ndarray
    singular_exponent: float = 0.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        g = self.singular_exponent
        if not (0.0 <= g < 1.0):
            raise ValueError(
                f"singular exponent must lie in [0, 1), got {g} (g >= 1 is not integrable)"
            )
        expected = self.grid.nodes.size
        if values.ndim != 1 or values.size != expected:
            raise ValueError(
                f"expected {expected} samples for this grid, got shape {values.shape}"
            )
        if g > 0.0 and not np.isnan(values[0]):
            raise ValueError("a singular function has no value at t = 0: values[0] must be nan")

    @classmethod
    def from_callable(cls, grid: Grid, fn, singular_exponent: float = 0.0) -> "SampledFunction":
        """Sample fn at the nodes; for singular_exponent > 0, fn is never
        evaluated at t_0 = 0."""
        skip = 1 if singular_exponent > 0.0 else 0
        vals = np.full(grid.nodes.size, np.nan)
        vals[skip:] = fn(grid.nodes[skip:])
        return cls(grid, vals, singular_exponent)

    def _check_compatible(self, other: "SampledFunction") -> None:
        if self.grid != other.grid:
            raise ValueError("sampled functions live on different grids")
        if self.singular_exponent != other.singular_exponent:
            raise ValueError("sampled functions carry different singular exponents")

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        self._check_compatible(other)
        return SampledFunction(self.grid, self.values + other.values, self.singular_exponent)


def _kernel_moments(a: np.ndarray, b: np.ndarray, beta: float):
    """Exact moments of the kernel u^(beta-1) over [b, a], 0 <= b < a:

        M0 = integral u^(beta-1) du         = (a^beta - b^beta) / beta
        M1 = integral u^(beta-1) (a - u) du

    evaluated in difference form so that M0, M1 keep full relative
    precision even when a - b << a. The gamma(beta) normalization is NOT
    included here. Every entry takes the series branch of b > 0, in place
    on arrays of the input's length, so the work holds few of them at
    once: the entries with b <= 0 (inf there, silenced) or r = (a - b) / b
    > 1/2 (summed at r = 1/2) are then overwritten by their own branch.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    zero = b <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = a - b
        # d1 = a^beta - b^beta without cancellation
        d1 = -(a**beta) * np.expm1(beta * np.log1p(-h / a))
        m0 = d1 / beta
        r = h / b
        far = (r > 0.5) & ~zero
        af, hf = a[far], h[far]
        d2 = -(af ** (beta + 1.0)) * np.expm1((beta + 1.0) * np.log1p(-hf / af))
        m1_far = af * d1[far] / beta - d2 / (beta + 1.0)
        del d1
        # M1 = h^2 b^(beta-1) sum_j C(beta-1, j) r^j / ((j+1)(j+2)); the sum is
        # integral_0^1 (1 + r s)^(beta-1) (1 - s) ds >= 1/3 for r <= 1/2
        m1 = h**2
        del h
        m1 *= b ** (beta - 1.0)
        np.minimum(r, 0.5, out=r)  # the far entries' series stays finite
        m1 *= _power_series(r, 0.5, lambda j: (beta - 1.0 - j) / (j + 3.0), beta - 1.0, 1 / 3)
    m1[far] = m1_far
    az = a[zero]
    m0[zero] = az**beta / beta
    m1[zero] = az ** (beta + 1.0) / (beta * (beta + 1.0))
    return m0, m1


def _series_terms(a0: float, ratio, k_min: float, floor: float) -> list:
    """a_0..a_(K-1) of sum_k a_k x^k, 0 <= x <= 1/2, a_(k+1) = a_k ratio(k).
    Given |ratio(k)| < 1 for k >= k_min, the term ratio is below x from
    there and the tail after K terms is at most |a_K| 2^(1-K): K is the
    first K >= k_min where that is below 2^-55 floor, a quarter ulp of any
    sum of at least floor."""
    coef = [a0]
    while True:
        k = len(coef)
        a_k = coef[-1] * ratio(k - 1)
        if not math.isfinite(a_k):
            raise ValueError(f"series coefficient {k} is not finite")
        if k >= k_min and abs(a_k) * 2.0 ** (1 - k) <= 2.0**-55 * floor:
            return coef
        coef.append(a_k)


def _power_series(x: np.ndarray, a0: float, ratio, k_min: float, floor: float) -> np.ndarray:
    """The sum of _series_terms by Horner's rule over scalar coefficients.
    K depends on the scalars only, so each element's value depends on its
    own x alone."""
    coef = _series_terms(a0, ratio, k_min, floor)
    acc = np.full_like(x, coef[-1])
    for c in reversed(coef[:-1]):
        acc *= x
        acc += c
    return acc


def _inc_beta_series(p: float, q: float, x: np.ndarray) -> np.ndarray:
    # B_x(p, q) = x^p sum_k [(1-q)_k / k!] x^k / (p+k) for x <= 1/2; the sum
    # is at least (1-x)^max(q-1, 0) / p >= 2^-max(q-1, 0) / p
    def ratio(k):
        return (k + 1.0 - q) / (k + 1.0) * (p + k) / (p + k + 1.0)

    return x**p * _power_series(x, 1.0 / p, ratio, q - 1.0, 2.0 ** -max(q - 1.0, 0.0) / p)


def incomplete_beta(p: float, q: float, x) -> np.ndarray:
    """Lower incomplete beta B_x(p, q) = integral_0^x u^(p-1)(1-u)^(q-1) du
    for p, q > 0 and x in [0, 1], by series for x <= 1/2 and the symmetry
    B_x(p, q) = B(p, q) - B_(1-x)(q, p) otherwise."""
    if not (0.0 < p < math.inf and 0.0 < q < math.inf):
        raise ValueError(f"incomplete beta needs positive finite parameters, got ({p}, {q})")
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("incomplete beta argument must lie in [0, 1]")
    out = np.empty_like(x)
    lo = x <= 0.5
    out[lo] = _inc_beta_series(p, q, x[lo])
    complete = math.gamma(p) * math.gamma(q) / math.gamma(p + q)
    out[~lo] = complete - _inc_beta_series(q, p, 1.0 - x[~lo])
    return out


def _fill_lower(table: np.ndarray, cell_weights, row_block: int = _ROW_BLOCK) -> None:
    """Add the weights of a product trapezoid rule to table, whose row
    r - 1 holds output node t_r, r = 1..table.shape[0].

    Rows go in blocks of up to row_block. cell_weights(rows) gets a
    block's rows and returns the weights of its first cells j (at most
    those left of rows[-1]) at each cell's left and right node, one row per
    output node, zero where j is not left of that node.
    """
    n = table.shape[0]
    for start in range(1, n + 1, row_block):
        rows = np.arange(start, min(start + row_block, n + 1))
        wl, wr = cell_weights(rows)
        block = table[start - 1 : rows[-1], : wl.shape[1] + 1]
        block[:, :-1] += wl
        block[:, 1:] += wr


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b in column chunks of at most 2^18 multiply-adds, which
    OpenBLAS runs on one thread: on a busy 2-CPU machine a second thread
    made such products up to 200x slower."""
    step = max(1, 2**18 // a.size)
    for i in range(0, b.shape[1], step):
        np.matmul(a, b[:, i : i + step], out=out[:, i : i + step])


def _far_table(beta: float, g: float, t: np.ndarray, j_far: int) -> np.ndarray:
    """The column-major weighted table (row r - 1 for node t_r, without
    1/gamma(beta) or the t^g fold) of the cells j >= j_far >= _FAR_CELL on
    a uniform grid t_j = j h. With d = r - j and (j+u)^(-g) = j^(-g) sum_m C(-g, m) (u/j)^m,
    whose terms shrink by 1/8 or more, cell j weighs t^g f at its ends by
        h t_j^(-g) sum_m C(-g, m) j^-m t_d^(beta-1) {s_m - s_(m+1), s_(m+1)}(d),
    s_m(d) = integral_0^1 (1 - u/d)^(beta-1) u^m du: B(m+1, beta) at d = 1,
    else sum_k b_k d^-k / (m+k+1), b_k = (1-beta)_k / k!, to the terms
    _series_terms keeps for a sum >= 2^-max(beta-1, 0) / (m+1). The moments
    depend on d alone, so a block of _ROW_BLOCK columns is one product,
    written straight into them. Powers are of node values only: nothing
    overflows before they do."""
    n = t.size - 1
    m = np.arange(_FAR_TERMS + 1.0)
    b = _series_terms(1.0, lambda k: (k + 1.0 - beta) / (k + 1.0), beta - 1.0, 2.0 ** min(1 - beta, 0))
    powers = np.vander(1.0 / np.arange(1.0, n - j_far + 2), len(b), increasing=True)
    s = np.empty((m.size, n - j_far + 1))  # s_m(d), d = 1..n - j_far + 1
    _matmul(b / (m[:, None] + np.arange(1.0, len(b) + 1)), powers.T, s)
    s[:, 0] = np.cumprod(np.concatenate(([1.0 / beta], m[1:] / (m[1:] + beta))))
    s *= t[1 : n - j_far + 2] ** (beta - 1.0)
    left = s[:-1, :-1] - s[1:, :-1]
    left[:, 0] = s[:-1, 0] * beta / (m[:-1] + 1.0 + beta)  # B(m+1, beta+1): no cancelling
    # column c holds row c - 1 + e, e = r - c >= 0: wl of cell c at d = e (none
    # at e = 0) and wr of cell c - 1 at d = e + 1; cell j_far - 1 is not far
    moments = np.vstack((np.pad(left, ((0, 0), (1, 0))), s[1:]))
    binom = np.cumprod(np.concatenate(([1.0], (-g - m[:-2]) / (m[:-2] + 1.0))))
    a = t[1] * t[j_far - 1 :, None] ** -g * binom * np.arange(j_far - 1.0, n + 1.0)[:, None] ** -m[:-1]
    a[0] = 0.0
    coef = np.hstack((a[1:], a[:-1]))
    flat = np.zeros((n + 1) * n)
    for c0 in range(j_far, n, _ROW_BLOCK):
        c1 = min(c0 + _ROW_BLOCK, n)
        k, w = c1 - c0, n - c0 + 1
        # out[q, e] is row c0 + q - 1 + e of column c0 + q; past row n - 1 it
        # runs on into the top rows of the next column, which must stay zero
        out = flat[c0 * (n + 1) - 1 : c1 * (n + 1) - 1].reshape(k, n + 1)[:, :w]
        _matmul(coef[c0 - j_far : c1 - j_far], moments[:, :w], out)
        out[:, w - k + 1 :][np.add.outer(np.arange(k), np.arange(k - 1)) >= k - 1] = 0.0
    table = flat.reshape(n + 1, n).T
    table[-1, -1] = coef[-1] @ moments[:, 0]
    return table


def _uniform_rule(beta: float, ginv: float, grid: Grid) -> tuple:
    """(stencil, boundary column) of I^beta on a uniform grid, ginv =
    1/gamma(beta): the apply at t_k is boundary[k] f_0 plus
    sum_(j < k) stencil[j] f_(k-j)."""
    n = grid.n_intervals
    h = grid.nodes[1]
    ends = np.arange(n + 1.0) * h  # cell k spans ends[k - 1]..ends[k]
    left, right = _kernel_moments(ends[1:], ends[:-1], beta)
    right /= h
    left -= right
    left *= ginv    # weight of f at the cell's far end
    right *= ginv   # weight of f at the cell's near end
    return np.concatenate((right[:1], left[:-1] + right[1:])), np.concatenate(([0.0], left))


def _history_plan(stencil: np.ndarray) -> tuple:
    """The plan of s = stencil zero-padded: block[j, i] = s[i - j] for
    i >= j, and rfft(s[:2h]) for each level _DIRECT_PUSH < h < N."""
    n = stencil.size
    i = np.arange(_BLOCK)
    s = np.pad(stencil[:_BLOCK], (0, max(_BLOCK - n, 0)))
    levels = [_DIRECT_PUSH << j for j in range(1, n.bit_length()) if _DIRECT_PUSH << j < n]
    return np.triu(s[abs(i[:, None] - i)]), [rfft(stencil[: 2 * h], 2 * h) for h in levels]


class FracIntegralOperator:
    """Product-trapezoidal discretization of the fractional integral

        (I^beta f)(t_n) = 1/gamma(beta) * integral_0^t_n (t_n - tau)^(beta-1) f(tau) dtau

    on a fixed Grid. On uniform grids the weights collapse to a length-N
    convolution stencil plus a boundary column, kept with the plan of its
    Toeplitz product; graded grids hold the full lower-triangular table. That
    table and the weighted tables for singular inputs are kept on the grid,
    so every operator of the same order on it shares them. Each is built on
    its first read (__getattr__, _dense_table).

    A marching solve finds f on t_1..t_N window by window, each inside one
    block of _BLOCK nodes: values holds f at t_0..t_N as far as it is
    known, and hist, from history, collects the apply from final samples
    until close completes it.
    For singular exponent g > 0 the window methods read the weighted table
    instead of the plain rule; its row of t_1 weighs f(t_2) too, so a
    window holding t_1 holds t_2.
    """

    def __init__(self, order: float, grid: Grid) -> None:
        if not 0.0 < order < math.inf:
            raise ValueError(f"integral order must be positive and finite, got {order}")
        self.order = float(order)
        try:
            self._ginv = 1.0 / math.gamma(self.order)
        except OverflowError:
            raise ValueError(f"integral order {order} overflows gamma") from None
        self.grid = grid
        self._weighted_tables = grid._tables.setdefault(round(self.order, 15), {})

    def __getattr__(self, name: str):
        """The plain rule, built on the first read of one of its parts and
        then kept: on a uniform grid _stencil and _boundary together
        (_uniform_rule), then _plan from the stencil (_history_plan); on a
        graded grid _table, the grid's plain table. The other kind's parts
        read None."""
        if name not in ("_stencil", "_boundary", "_plan", "_table"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        uniform = self.grid.is_uniform
        if name == "_table":
            self._table = None if uniform else self._dense_table(0.0)
        elif not uniform:
            self._stencil = self._boundary = self._plan = None
        elif name == "_plan":
            self._plan = _history_plan(self._stencil)
        else:
            self._stencil, self._boundary = _uniform_rule(self.order, self._ginv, self.grid)
        return self.__dict__[name]

    def history(self, f0: float, g: float = 0.0) -> np.ndarray:
        """The share of f(t_0) = f0 in the apply at t_0..t_N; none for g > 0."""
        table = self._dense_table(g) if g else self._table
        if table is None:
            return self._boundary * f0
        return np.concatenate(([0.0], table[:, 0] * (0.0 if g else f0)))

    def near_field(self, lo: int, hi: int, g: float = 0.0) -> np.ndarray:
        """Maps values[a:hi], the samples of the block a = block_bounds(lo, N)[0]
        up to t_(hi-1), to their share in the apply at t_lo..t_(hi-1)."""
        a = block_bounds(lo, self.grid.n_intervals)[0]
        table = self._dense_table(g) if g else self._table
        if table is None:
            return self._plan[0][: hi - a, lo - a : hi - a]
        return table[lo - 1 : hi - 1, a:hi].T

    def push_history(self, hist: np.ndarray, values: np.ndarray, starts: range, g: float = 0.0) -> None:
        """Add to hist what values[:p] completes once t_p starts a block, for
        each p in starts: range(p, p + 1) as a march ends a window, or every
        block start of one level h, range(h + 1, N + 1, 2h), as a whole
        apply pushes them. A dense table adds the block's columns to every
        later row. A plan adds every level's share of a 2h-block whose
        middle is t_p, from its first half in its second: level h = q & -q,
        q = p - 1, summed directly up to _DIRECT_PUSH, where an FFT costs
        more in calls than it saves, and above by one batched rfft/irfft
        whose rows are each start's own FFT. Where starts[0] starts no
        block, or is past N, this does nothing. Once pushed for every p up
        to the start a of a block, hist[a:] holds values[:a]."""
        q = starts[0] - 1
        if not q or q % _BLOCK or q >= self.grid.n_intervals:
            return
        table = self._dense_table(g) if g else self._table
        if table is not None:
            for p in starts:
                hist[p:] += table[p - 1 :, p - _BLOCK : p] @ values[p - _BLOCK : p]
            return
        h = q & -q
        if h <= _DIRECT_PUSH:
            stencil = self._stencil[1 : 2 * h]
            for p in starts:
                seg = hist[p : p + h]
                seg += np.convolve(stencil, values[p - h : p], "valid")[: seg.size]
            return
        spectrum = self._plan[1][(h // _DIRECT_PUSH).bit_length() - 2]
        rows = irfft(rfft([values[p - h : p] for p in starts], 2 * h) * spectrum, 2 * h)
        for p, row in zip(starts, rows):
            seg = hist[p : p + h]
            seg += row[h : h + seg.size]

    def close(self, hist: np.ndarray, values: np.ndarray, g: float = 0.0) -> np.ndarray:
        """Add to hist, from history and pushed at every block start, each
        block's own share: hist[1:] is then the apply to values at
        t_1..t_N. Returns hist. On a uniform grid at g = 0 every full block
        has the plan's near field, so their rows of values take it in one
        product, in chunks of _BLOCK rows (2^18 multiply-adds, one BLAS
        thread as in _matmul); a last block cut short, and each block of a
        dense table, take their near_field."""
        n = self.grid.n_intervals
        a = 1
        if not g and self.grid.is_uniform:  # g first: a weighted apply reads no plan
            a += n - n % _BLOCK
            for i in range(1, a, _BLOCK * _BLOCK):
                j = min(i + _BLOCK * _BLOCK, a)
                hist[i:j] += (values[i:j].reshape(-1, _BLOCK) @ self._plan[0]).ravel()
        for a in range(a, n + 1, _BLOCK):
            b = min(a + _BLOCK, n + 1)
            hist[a:b] += values[a:b] @ self.near_field(a, b, g)
        return hist

    def _apply(self, u: np.ndarray, g: float = 0.0) -> np.ndarray:
        """The apply at t_1..t_N to samples u at t_0..t_N, u[0] unused for g > 0.
        A plan pushes one level at a time, the top level first: the order
        in which the march's pushes reach each output."""
        table = self._dense_table(g) if g else self._table
        if table is not None:
            skip = 1 if g else 0
            return table[:, skip:] @ u[skip:]
        hist = self.history(u[0])
        n = self.grid.n_intervals
        h = 1 << ((n - 1).bit_length() - 1)  # the largest power of 2 below N
        while h >= _BLOCK:
            self.push_history(hist, u, range(h + 1, n + 1, 2 * h))
            h //= 2
        return self.close(hist, u)[1:]

    def _dense_table(self, g: float) -> np.ndarray:
        """The grid's dense table of this order for singular exponent g,
        built on first use, row r - 1 for node t_r. g = 0: the plain rule.
        g > 0: the weighted rule on f, whose bounded factor t^g f(t) it
        interpolates, extrapolated to t_0 from t_1 and t_2 (column 0 is
        zero); exact where that factor is piecewise linear."""
        key = round(g, 15)
        cached = self._weighted_tables.get(key)
        if cached is not None:
            return cached
        beta = self.order
        t = self.grid.nodes
        n = self.grid.n_intervals
        ginv = self._ginv
        if g == 0.0:
            def cells(rows):
                c = rows[-1]
                tr = t[rows][:, None]
                live = np.arange(c) < rows[:, None]
                a, b = (tr - t[:c])[live], (tr - t[1 : c + 1])[live]
                m0, m1 = _kernel_moments(a, b, beta)
                wl, wr = np.zeros(live.shape), np.zeros(live.shape)
                wl[live], wr[live] = (m0 - m1 / (a - b)) * ginv, m1 / (a - b) * ginv
                return wl, wr

            table = np.zeros((n, n + 1))
            _fill_lower(table, cells)
        else:
            # cell moments against (t_row - tau)^(beta-1) tau^(-g): with x_j = t_j / t_row,
            # p = 1 - g, B = B_x(p, beta) and F = x^p (1 - x)^beta,
            #   J0_j = integral_(t_j)^(t_j+1) ...       = t_row^(beta-g) diff B
            #   S_j = integral ... (tau - t_j) = J1_j - t_j J0_j
            #       = t_row^(beta-g+1) ((p/(p+beta) - x_j) diff B - diff F / (p+beta)),
            # as B_x(p+1, beta) = (p B - F) / (p + beta) (DLMF 8.17.20): one series per
            # node. Linear interpolation of the bounded factor then gives endpoint weights
            # wl = J0 - S/h, wr = S/h; cells right of the row have x = 1 at both ends: zero.
            # A uniform grid takes its cells from _FAR_CELL on from _far_table.
            p = 1.0 - g
            near = min(n, _FAR_CELL) if self.grid.is_uniform else n

            def cells(rows):
                c = min(rows[-1], near)
                tr = t[rows][:, None]
                x = np.clip(t[None, : c + 1] / tr, 0.0, 1.0)
                db = np.diff(incomplete_beta(p, beta, x), axis=1)
                df = np.diff(x**p * (1.0 - x) ** beta, axis=1)
                s = tr ** (beta - g + 1.0) * ((p / (p + beta) - x[:, :-1]) * db - df / (p + beta))
                s /= np.diff(t[: c + 1])
                return tr ** (beta - g) * db - s, s

            table = _far_table(beta, g, t, near) if near < n else np.zeros((n, n + 1))
            _fill_lower(table, cells, n if self.grid.is_uniform else _ROW_BLOCK)
            table *= ginv
            # fold in t^g and t^g f at t_0, extrapolated from t_1 and t_2
            c = t[1] / (t[2] - t[1])
            table[:, 1:] *= t[1:] ** g
            table[:, 1:3] += np.outer(table[:, 0], t[1:3] ** g * (1.0 + c, -c))
            table[:, 0] = 0.0
        # the store is shared through the grid: should a library caller's two
        # threads build the same table at once, both return the one stored first
        return self._weighted_tables.setdefault(key, table)


def block_bounds(lo: int, n: int) -> tuple:
    """(a, b): t_a..t_(b-1) is the block of _BLOCK nodes of t_1..t_n that
    holds t_lo, so a marching window starting at t_lo ends at b at the latest."""
    a = lo - (lo - 1) % _BLOCK
    return a, min(a + _BLOCK, n + 1)


def build_integral_operator(order: float, grid: Grid) -> FracIntegralOperator:
    """Assemble the discrete I^order on the given grid."""
    return FracIntegralOperator(order, grid)


def integral_node_values(op: FracIntegralOperator, f: SampledFunction) -> np.ndarray:
    """Values of (I^op.order f) at the positive nodes t_1..t_N only.

    Unlike apply_integral this makes no continuity claim at the origin, so
    it stays usable in the boundary case order <= singular_exponent where
    the image is not continuous at 0 (decay studies need exactly that).
    Finite samples whose apply overflows raise NonFiniteIterateError. A
    non-finite sample on a uniform grid spoils every output of its block
    of _BLOCK nodes, earlier ones too (close multiplies the whole block),
    and every output after it (the pushes carry it into each later block);
    on a dense table it spoils every output.
    """
    if op.grid != f.grid:
        raise ValueError("operator and samples live on different grids")
    g = f.singular_exponent
    with np.errstate(all="ignore"):  # checked below
        out = op._apply(f.values, g)
    if np.isfinite(f.values[1 if g else 0 :]).all():
        _finite(out, op.grid.nodes[1:], f"I^{op.order:g} of finite samples took")
    return out


def apply_integral(op: FracIntegralOperator, f: SampledFunction) -> SampledFunction:
    """Discrete fractional integral of f; the image is continuous with
    value 0 at t = 0, which requires order > singular_exponent."""
    g = f.singular_exponent
    if op.order <= g:
        raise ValueError(
            f"integral order {op.order} must exceed the singular exponent {g} "
            "for a continuous image; use integral_node_values for the boundary case"
        )
    return SampledFunction(op.grid, np.concatenate(([0.0], integral_node_values(op, f))), 0.0)


def derivative_taylor_part(initial_values, alpha_h: float, grid: Grid) -> SampledFunction:
    """Caputo derivative of order alpha_h >= 0 of the initial polynomial
    sum_j b_j t^j / j! with b_j = initial_values[j]:

        sum_(j = n_h)^(n-1) b_j t^(j - alpha_h) / gamma(j + 1 - alpha_h),

    with n_h = ceil(alpha_h); the first n_h terms are annihilated. Order 0
    gives the polynomial itself. Zero coefficients are skipped (0 * t^p is
    nan where the power overflows), and the terms are added in ascending j,
    so two calls sharing a coefficient prefix agree bitwise on that prefix.
    A negative or nan order raises ValueError (ceil_order)."""
    t = grid.nodes
    vals = np.zeros_like(t)
    for j in range(ceil_order(alpha_h), len(initial_values)):
        bj = float(initial_values[j])
        if bj:
            vals = vals + (bj / math.gamma(j + 1.0 - alpha_h)) * t ** (j - alpha_h)
    return SampledFunction(grid, vals, 0.0)


def caputo_derivative(y: SampledFunction, alpha: float, initial_derivs) -> SampledFunction:
    """Discrete Caputo derivative of order alpha > 0:

        D^alpha y = d^n/dt^n [ I^(n-alpha) (y - T_(n-1) y) ],  n = ceil(alpha),

    where T_(n-1) is the degree n-1 Taylor polynomial encoded by
    initial_derivs (length n). Differencing uses centered second-order
    stencils, so this is a diagnostic tool, not part of the solve loop.
    """
    if y.singular_exponent != 0.0:
        raise ValueError("caputo_derivative needs regular samples")
    n = ceil_order(alpha)
    initial_derivs = tuple(float(b) for b in initial_derivs)
    if len(initial_derivs) != n:
        raise ValueError(
            f"order {alpha} needs exactly {n} initial derivatives, got {len(initial_derivs)}"
        )
    grid = y.grid
    if grid.n_intervals < 2 * n:
        raise ValueError(
            f"grid too coarse to difference {n} times: N = {grid.n_intervals} < {2 * n}"
        )
    t = grid.nodes
    r = y.values - derivative_taylor_part(initial_derivs, 0.0, grid).values
    if is_integer_order(alpha):
        w = r
    else:
        op = build_integral_operator(n - alpha, grid)
        w = np.concatenate(([0.0], integral_node_values(op, SampledFunction(grid, r))))
    for _ in range(n):
        w = np.gradient(w, t, edge_order=2)
    return SampledFunction(grid, w, 0.0)
