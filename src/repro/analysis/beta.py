"""Closed-form pieces of the configuration-time delay bound.

Theorem 3 of the paper bounds the worst-case queueing delay of the
real-time class at a server with ``N`` input links, class utilization
``alpha`` and class envelope ``(T, rho)`` as

    d_k  <=  (T + rho*Y_k) * alpha/rho  +  (alpha - 1) * alpha*(T + rho*Y_k) / (rho*(N - alpha))

which factors into the form used throughout this library::

    d_k = beta * (T + rho * Y_k),      beta = alpha*(N - 1) / (rho*(N - alpha))

``beta`` captures everything about the server (fan-in and allocated
utilization); the traffic term ``T + rho*Y_k`` captures the class envelope
inflated by upstream jitter ``Y_k`` (Theorem 1).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import AnalysisError

__all__ = [
    "beta_coefficient",
    "theorem3_delay",
    "uniform_worst_delay",
]

ArrayLike = Union[float, np.ndarray]


def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise AnalysisError(
            f"class utilization must be in (0, 1], got {alpha}"
        )
    return alpha


def beta_coefficient(
    alpha: float, rho: float, fan_in: ArrayLike
) -> ArrayLike:
    """The Theorem 3 coefficient ``beta = alpha*(N-1)/(rho*(N-alpha))``.

    Accepts scalar or array ``fan_in`` (per-server ``N_k``); returns the
    matching shape.  ``fan_in = 1`` yields ``beta = 0`` — a single input
    link at most fills the output link, so no queueing builds up.
    """
    alpha = _validate_alpha(alpha)
    if rho <= 0:
        raise AnalysisError(f"rate rho must be positive, got {rho}")
    n = np.asarray(fan_in, dtype=np.float64)
    if np.any(n < 1):
        raise AnalysisError("server fan-in must be >= 1")
    out = alpha * (n - 1.0) / (rho * (n - alpha))
    return float(out) if np.isscalar(fan_in) else out


def theorem3_delay(
    burst: float, rate: float, alpha: float, fan_in: ArrayLike, y: ArrayLike
) -> ArrayLike:
    """Theorem 3: ``d_k = beta * (T + rho * Y_k)`` (vectorized)."""
    if burst < 0:
        raise AnalysisError(f"burst must be >= 0, got {burst}")
    beta = beta_coefficient(alpha, rate, fan_in)
    y_arr = np.asarray(y, dtype=np.float64)
    if np.any(y_arr < 0):
        raise AnalysisError("upstream delay Y must be >= 0")
    out = np.asarray(beta) * (burst + rate * y_arr)
    if np.isscalar(y) and np.isscalar(fan_in):
        return float(out)
    return out


def uniform_worst_delay(
    burst: float,
    rate: float,
    alpha: float,
    fan_in: int,
    diameter: int,
) -> float:
    """Topology-independent per-server worst-case delay (paper eq. 17).

    Solves ``d = beta * (T + rho * (L - 1) * d)`` — the uniform bound used
    in the Theorem 4 lower-bound derivation, valid when
    ``beta * rho * (L - 1) < 1``.  Returns ``inf`` when the recursion
    diverges (the utilization is too high for any route selection of
    diameter ``L`` to be provably safe by this bound).
    """
    if diameter < 1:
        raise AnalysisError(f"diameter must be >= 1, got {diameter}")
    beta = beta_coefficient(alpha, rate, fan_in)
    feedback = beta * rate * (diameter - 1)
    if feedback >= 1.0:
        return float("inf")
    return beta * burst / (1.0 - feedback)

