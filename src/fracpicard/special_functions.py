"""Scalar special functions used throughout the solver.

Everything here is self-contained on purpose: the quadrature weights and
series below are exercised at tolerances (1e-13 relative) where silently
swapping implementations matters, so the package carries its own gamma,
log-gamma and Mittag-Leffler evaluations instead of pulling in scipy.

gamma uses the Lanczos approximation with g = 7 and 9 coefficients
(Godfrey's values), which is good to ~1e-14 relative on the positive axis,
combined with the reflection formula for arguments below 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    z = x - 1.0
    acc = _LANCZOS_P[0]
    for i in range(1, len(_LANCZOS_P)):
        acc += _LANCZOS_P[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc


def log_gamma(x: float) -> float:
    """log(gamma(x)) for x > 0, stable for large arguments."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_P[0]
    for i in range(1, len(_LANCZOS_P)):
        acc += _LANCZOS_P[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


@dataclass(frozen=True)
class MLParams:
    """Parameters of a two-parameter Mittag-Leffler evaluation.

    alpha > 0 is the series order, beta the second parameter (any real;
    terms whose gamma argument lands on a pole contribute zero). tol is
    the term-magnitude stopping threshold, max_terms the hard cap.
    """

    alpha: float
    beta: float = 1.0
    tol: float = 1e-14
    max_terms: int = 2000

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


def _ml_term(z: float, k: int, arg: float) -> float:
    # one series term z^k / gamma(alpha k + beta), 0 at poles of gamma
    if _is_nonpositive_integer(arg):
        return 0.0
    if z == 0.0:
        return 1.0 / gamma(arg) if k == 0 else 0.0
    if arg > 0.5:
        ln = k * math.log(abs(z)) - log_gamma(arg)
        if ln > 700.0:
            raise SeriesConvergenceError(
                f"series term overflow at k = {k} (|z| = {abs(z):g})"
            )
        term = math.exp(ln)
        if z < 0.0 and k % 2 == 1:
            term = -term
        return term
    # arg <= 0.5 only happens for small k since alpha > 0
    return z**k / gamma(arg)


def mittag_leffler(params: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) by direct
    Taylor summation with a term recurrence on the gamma argument.

    The sum stops once a term falls below params.tol in magnitude while
    terms are (weakly) decreasing; hitting params.max_terms first raises
    SeriesConvergenceError. Reliable for the moderate |z| this package
    needs (|z| up to a few tens for alpha >= 0.3).
    """
    z = float(z)
    total = 0.0
    prev = math.inf
    for k in range(params.max_terms):
        term = _ml_term(z, k, params.alpha * k + params.beta)
        total += term
        mag = abs(term)
        if mag < params.tol and mag <= prev:
            return total
        prev = mag
    raise SeriesConvergenceError(
        f"Mittag-Leffler series did not converge in {params.max_terms} terms "
        f"(alpha = {params.alpha}, beta = {params.beta}, z = {z:g})"
    )
