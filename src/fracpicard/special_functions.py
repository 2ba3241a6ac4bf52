"""Special functions used throughout the solver.

Everything here is self-contained on purpose: the quadrature weights and
series below are exercised at tolerances (1e-13 relative) where silently
swapping implementations matters, so the package carries its own gamma,
log-gamma and Mittag-Leffler evaluations instead of pulling in scipy.
gamma and log_gamma take scalars; mittag_leffler takes a scalar or an
array and sums one series over all of it.

gamma uses the Lanczos approximation with g = 7 and 9 coefficients
(Godfrey's values), which is good to ~1e-14 relative on the positive axis,
combined with the reflection formula for arguments below 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "gamma",
    "log_gamma",
    "MLParams",
    "mittag_leffler",
    "SeriesConvergenceError",
]

# Lanczos coefficients for g = 7.
_LANCZOS_G = 7.0
_LANCZOS_P = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


class SeriesConvergenceError(ArithmeticError):
    """A series evaluation failed to reach its tolerance."""


def _is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) < tol


def _lanczos(x: float):
    """Lanczos pieces for x >= 1/2: gamma(x) = sqrt(2 pi) t^(z + 1/2) e^(-t) acc
    with z = x - 1 and t = z + g + 1/2."""
    z = x - 1.0
    acc = _LANCZOS_P[0]
    for i in range(1, len(_LANCZOS_P)):
        acc += _LANCZOS_P[i] / (z + i)
    return z, z + _LANCZOS_G + 0.5, acc


def gamma(x: float) -> float:
    """Gamma function for real x, poles excluded.

    Raises ValueError at the poles x = 0, -1, -2, ... where the function
    has no finite value.
    """
    x = float(x)
    if math.isnan(x):
        return math.nan
    if _is_nonpositive_integer(x):
        raise ValueError(f"gamma pole at x = {x}")
    if x < 0.5:
        # reflection: gamma(x) gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z, t, acc = _lanczos(x)
    return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc


def log_gamma(x: float) -> float:
    """log(gamma(x)) for x > 0, stable for large arguments."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z, t, acc = _lanczos(x)
    return _LOG_SQRT_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


@dataclass(frozen=True)
class MLParams:
    """Parameters of a two-parameter Mittag-Leffler evaluation.

    alpha > 0 is the series order, beta the second parameter (any finite real;
    terms whose gamma argument lands on a pole contribute zero). tol is
    the term-magnitude stopping threshold, max_terms the hard cap.
    """

    alpha: float
    beta: float = 1.0
    tol: float = 1e-14
    max_terms: int = 2000

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


def mittag_leffler(params: MLParams, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) by direct
    Taylor summation, for a scalar or an array z.

    One series runs over the whole array: the gamma argument alpha k + beta,
    its pole test and its (log-)gamma value are computed once per k and
    shared by every element. Each element stops on its own, at the first
    term below params.tol in magnitude that is no larger than the term
    before it, and then leaves the working arrays, so its value does not
    depend on the other elements. A scalar z gives a float, an array z an
    array of its shape.

    For z < 0 the series alternates: its terms grow to about
    exp(|z|^(1/alpha)) before they decay, and the rounding error of the
    sum grows with sum_k |term_k|. At alpha = 1/2 about 3 correct digits
    are left at z = -5 and none at z = -10. A term above exp(700), or
    params.max_terms terms without stopping, raises SeriesConvergenceError
    naming the z; a non-finite z raises ValueError.
    """
    z_in = np.asarray(z, dtype=float)
    zs = z_in.ravel()
    bad = zs[~np.isfinite(zs)]
    if bad.size:
        raise ValueError(f"Mittag-Leffler argument must be finite, got z = {bad[0]}")
    out = np.empty_like(zs)
    # at z = 0 only the k = 0 term, 1/gamma(beta), survives
    zero = zs == 0.0
    out[zero] = 0.0 if _is_nonpositive_integer(params.beta) else 1.0 / gamma(params.beta)
    idx = np.flatnonzero(~zero)  # elements still summing, as indices into zs
    log_abs = np.log(np.abs(zs[idx]))
    negative = zs[idx] < 0.0
    total = np.zeros(idx.size)
    prev = np.full(idx.size, math.inf)
    for k in range(params.max_terms):
        if idx.size == 0:
            break
        arg = params.alpha * k + params.beta
        if _is_nonpositive_integer(arg):
            continue  # 1/gamma vanishes at its poles: no term, and no cue to stop
        if arg > 0.5:
            ln = k * log_abs - log_gamma(arg)
            if ln.max() > 700.0:
                raise SeriesConvergenceError(
                    f"series term overflow at k = {k} (z = {zs[idx[ln.argmax()]]:g})"
                )
            term = np.exp(ln, out=ln)
            if k % 2 == 1:
                np.negative(term, out=term, where=negative)
        else:
            # arg <= 0.5 only happens for small k since alpha > 0
            term = zs[idx] ** k / gamma(arg)
        total += term
        mag = np.abs(term)
        done = (mag < params.tol) & (mag <= prev)
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, log_abs, negative = idx[keep], log_abs[keep], negative[keep]
            total, mag = total[keep], mag[keep]
        prev = mag
    if idx.size:
        raise SeriesConvergenceError(
            f"Mittag-Leffler series did not converge in {params.max_terms} terms "
            f"(alpha = {params.alpha}, beta = {params.beta}, z = {zs[idx[0]]:g})"
        )
    out = out.reshape(z_in.shape)
    return out if isinstance(z, np.ndarray) or np.ndim(z) else float(out)
