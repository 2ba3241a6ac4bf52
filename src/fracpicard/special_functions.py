"""The two-parameter Mittag-Leffler function, the oracle of ml: studies.

mittag_leffler takes a scalar or an array. For 0 < alpha < 1 and
0 < beta <= 1.9 it evaluates every z < 0 on one fixed Bromwich contour;
everything else is summed by one Taylor series over the array. Its Gamma
and log-Gamma values come from Python's math module, which CPython
computes itself rather than through the platform libm, so numpy stays
the only runtime dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MLParams",
    "mittag_leffler",
    "SeriesConvergenceError",
]


class SeriesConvergenceError(ArithmeticError):
    """A series evaluation failed to reach its tolerance."""


# a term below _TOL in magnitude ends its element's sum; _MAX_TERMS caps the
# sum; a gamma argument within _POLE_TOL of 0, -1, -2, ... is a pole
_TOL = 1e-14
_MAX_TERMS = 2000
_POLE_TOL = 1e-12

# the trapezoidal rule on the parabola s = _MU (1 + iu)^2 in steps of _STEP,
# u_k = k _STEP for k < _NODES: e^s has fallen below 2e-15 at the last node
# (Weideman & Trefethen, Math. Comp. 76 (2007) 1341)
_MU = 1.2
_STEP = 0.17
_NODES = 33
# the rule's error near z = 0 grows with beta, as s^-beta sharpens at s = 0:
# 2.0e-14 at beta = 1.7, 6.0e-14 at 1.9 and 1.02e-13 at 2 (against 120-digit
# sums), so beta above _BETA_MAX stays on the series
_BETA_MAX = 1.9


def _is_nonpositive_integer(x: float) -> bool:
    return x <= _POLE_TOL and abs(x - round(x)) < _POLE_TOL


@dataclass(frozen=True)
class MLParams:
    """Parameters of a two-parameter Mittag-Leffler evaluation.

    alpha > 0 is the series order, beta the second parameter (any finite real;
    terms whose gamma argument lands on a pole contribute zero).
    """

    alpha: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")


def _contour(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-x) for x > 0, 0 < alpha < 1 and 0 < beta <= _BETA_MAX: the
    Bromwich integral (1/2 pi i) int e^s s^(alpha-beta) / (s^alpha + x) ds
    by the trapezoidal rule on the parabola s = _MU (1 + iu)^2. The
    integrand at -u is the conjugate of that at u, so the sum is twice the
    real part of the sum over u >= 0, with u = 0 halved. The weights and
    the s^alpha of the nodes are shared by every element; each element
    adds one complex quotient per node."""
    v = 1.0 + 1j * _STEP * np.arange(_NODES)
    s = _MU * v**2
    s_alpha = s**alpha
    # ds = 2i _MU (1 + iu) du, whose i cancels the one of 1/(2 pi i)
    w = np.exp(s) * s ** (alpha - beta) * _MU * v * (_STEP / math.pi)
    w[0] /= 2.0
    total = np.zeros(x.shape, dtype=complex)
    for wk, sk in zip(w, s_alpha):
        total += wk / (sk + x)
    return 2.0 * total.real


def mittag_leffler(params: MLParams, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z), for a scalar
    or an array z.

    Where 0 < alpha < 1 and 0 < beta <= 1.9, every z < 0 goes to _contour:
    s^alpha - z has no zero on the principal sheet, so the trapezoidal rule
    on one fixed Bromwich contour converges for all of them at once. At
    beta = 1 it is within 1e-13 relative of the exact value (E_(1/2)(-x) =
    erfcx(x) within 2e-15 for x up to 1e8), and within 1e-13 absolute at
    the other beta. Everything else is summed by the Taylor series: z > 0,
    alpha >= 1 and other beta. z = 0 gives 1/Gamma(beta).

    One series runs over the whole array: the gamma argument alpha k + beta,
    its pole test and its (log-)gamma value are computed once per k and
    shared by every element. Each element stops on its own, at the first
    term below _TOL in magnitude that is no larger than the term
    before it, and then leaves the working arrays. On either path an
    element's value does not depend on the other elements. A scalar z
    gives a float, an array z an array of its shape.

    For z < 0 the series alternates: its terms grow to about
    exp(|z|^(1/alpha)) before they decay, and the rounding error of the
    sum grows with sum_k |term_k|. So the terms above 1 of such a sum are
    taken to a few ulp, which leaves an error of a few ulp of the largest
    term. Where that term passes 2^53, |z|^(1/alpha) >= 53 ln 2, no digit
    would be left, and the series raises SeriesConvergenceError naming
    beta and the z (E_1(-40), for one). A term above exp(700),
    1/Gamma(beta) included, or _MAX_TERMS terms without stopping, raises
    it too; a non-finite z raises ValueError.
    """
    z_in = np.asarray(z, dtype=float)
    zs = z_in.ravel()
    bad = zs[~np.isfinite(zs)]
    if bad.size:
        raise ValueError(f"Mittag-Leffler argument must be finite, got z = {bad[0]}")
    out = np.zeros_like(zs)
    # at z = 0 only the k = 0 term, 1/gamma(beta), survives
    zero = zs == 0.0
    if zero.any() and not _is_nonpositive_integer(params.beta):
        if math.lgamma(params.beta) < -700.0:
            raise SeriesConvergenceError(
                f"series term overflow at k = 0 (beta = {params.beta}, z = 0)")
        try:
            out[zero] = 1.0 / math.gamma(params.beta)
        except OverflowError:  # beta above about 171.6: 1/Gamma is subnormal or 0
            out[zero] = math.exp(-math.lgamma(params.beta))
    series = ~zero
    if params.alpha < 1.0 and 0.0 < params.beta <= _BETA_MAX:
        contour = zs < 0.0
        out[contour] = _contour(params.alpha, params.beta, -zs[contour])
        series &= ~contour
    idx = np.flatnonzero(series)  # elements still summing, as indices into zs
    abs_z = np.abs(zs[idx])
    log_abs = np.log(abs_z)
    negative = zs[idx] < 0.0
    # the largest term of a sum at z < 0, about exp(|z|^(1/alpha)), must stay
    # below 2^53 for its few ulp of error to leave a digit of the sum
    cap = math.log(53.0 * math.log(2.0))
    lost = negative & (log_abs >= params.alpha * cap)
    if lost.any():
        raise SeriesConvergenceError(
            f"alternating series cancels every digit "
            f"(beta = {params.beta}, z = {zs[idx[lost.argmax()]]:g})")
    total = np.zeros(idx.size)
    prev = np.full(idx.size, math.inf)
    hi = params.alpha * 134217729.0  # Veltkamp split alpha = hi + lo: hi * k is exact
    hi -= hi - params.alpha
    lo = params.alpha - hi
    for k in range(_MAX_TERMS):
        if idx.size == 0:
            break
        arg = params.alpha * k + params.beta
        if _is_nonpositive_integer(arg):
            continue  # 1/gamma vanishes at its poles: no term, and no cue to stop
        ln = k * log_abs - math.lgamma(arg)
        if ln.max() > 700.0:
            raise SeriesConvergenceError(f"series term overflow at k = {k} "
                                         f"(beta = {params.beta}, z = {zs[idx[ln.argmax()]]:g})")
        if arg > 0.5:
            term = np.exp(ln, out=ln)
            big = negative & (term > 1.0)
            if arg < 171.0 and k * params.alpha * cap < 700.0 and big.any():
                # take those terms to a few ulp as |z|^k / Gamma(arg), with
                # Gamma corrected to first order for the rounding of arg,
                # delta = (alpha k + beta) - arg by TwoProduct and TwoSum;
                # here |z|^k < exp(700)
                p = params.alpha * k
                b = arg - p
                delta = (hi * k - p) + lo * k + (p - (arg - b)) + (params.beta - b)
                psi = (math.lgamma(arg + 1e-4) - math.lgamma(arg - 1e-4)) / 2e-4
                g = math.gamma(arg) * (1.0 + psi * delta)
                np.power(abs_z, k, out=term, where=big)
                np.divide(term, g, out=term, where=big)
            if k % 2 == 1:
                np.negative(term, out=term, where=negative)
        else:
            # arg <= 0.5 only happens for small k since alpha > 0
            term = zs[idx] ** k / math.gamma(arg)
        total += term
        mag = np.abs(term)
        done = (mag < _TOL) & (mag <= prev)
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, abs_z, log_abs, negative = (
                a[keep] for a in (idx, abs_z, log_abs, negative))
            total, mag = total[keep], mag[keep]
        prev = mag
    if idx.size:
        raise SeriesConvergenceError(
            f"Mittag-Leffler series did not converge in {_MAX_TERMS} terms "
            f"(alpha = {params.alpha}, beta = {params.beta}, z = {zs[idx[0]]:g})"
        )
    out = out.reshape(z_in.shape)
    return out if isinstance(z, np.ndarray) or np.ndim(z) else float(out)
