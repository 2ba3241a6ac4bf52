"""The two-parameter Mittag-Leffler function, the oracle of ml: studies.

mittag_leffler takes a scalar or an array and sums one series over all
of it. Its Gamma and log-Gamma values come from Python's math module,
which CPython computes itself rather than through the platform libm, so
numpy stays the only runtime dependency.
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


def mittag_leffler(params: MLParams, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) by direct
    Taylor summation, for a scalar or an array z.

    One series runs over the whole array: the gamma argument alpha k + beta,
    its pole test and its (log-)gamma value are computed once per k and
    shared by every element. Each element stops on its own, at the first
    term below _TOL in magnitude that is no larger than the term
    before it, and then leaves the working arrays, so its value does not
    depend on the other elements. A scalar z gives a float, an array z an
    array of its shape.

    For z < 0 the series alternates: its terms grow to about
    exp(|z|^(1/alpha)) before they decay, and the rounding error of the
    sum grows with sum_k |term_k|. So the terms above 1 of such a sum are
    taken to a few ulp, which leaves an error of a few ulp of the largest
    term: at alpha = 1/2 about 5 correct digits are left at z = -5 and
    none from z = -6 on. A term above exp(700), 1/Gamma(beta) included, or
    _MAX_TERMS terms without stopping, raises SeriesConvergenceError
    naming beta and the z; a non-finite z raises ValueError.
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
    idx = np.flatnonzero(~zero)  # elements still summing, as indices into zs
    abs_z = np.abs(zs[idx])
    log_abs = np.log(abs_z)
    negative = zs[idx] < 0.0
    # z < 0 whose largest term, about exp(|z|^(1/alpha)), stays below 2^53:
    # their alternating sums keep digits if the terms are accurate
    cap = math.log(53.0 * math.log(2.0))
    cancels = negative & (log_abs < params.alpha * cap)
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
            big = cancels & (term > 1.0)
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
            idx, abs_z, log_abs, negative, cancels = (
                a[keep] for a in (idx, abs_z, log_abs, negative, cancels))
            total, mag = total[keep], mag[keep]
        prev = mag
    if idx.size:
        raise SeriesConvergenceError(
            f"Mittag-Leffler series did not converge in {_MAX_TERMS} terms "
            f"(alpha = {params.alpha}, beta = {params.beta}, z = {zs[idx[0]]:g})"
        )
    out = out.reshape(z_in.shape)
    return out if isinstance(z, np.ndarray) or np.ndim(z) else float(out)
