"""Theorem 4: closed-form bounds on the maximum safe utilization.

For a two-class network with ``N`` input links per router, diameter ``L``
and real-time traffic ``(T, rho)`` with deadline ``D``, the maximum
utilization ``alpha*`` any route selection can support satisfies::

    LB = N / ((L*T/(D*rho) + (L-1)) * (N-1) + 1)
    UB = N*(x - 1) / (N + x - 2),   with  x = (D*rho/T + 1)**(1/L)

The camera-ready rendering of eq. (15) is typographically damaged; these
forms are re-derived from the paper's own sketch (Section 5.3.2):

* **LB** — substitute the topology-independent jitter bound
  ``Y_k <= (L-1)*d`` into Theorem 3, solve ``d = beta*(T + rho*(L-1)*d)``
  and impose ``L*d <= D``.  Any route selection with paths of length at
  most ``L`` (e.g. shortest-path) is safe at or below LB.
* **UB** — assume the feedback-free best case along one diameter route,
  where delays accumulate geometrically:
  ``d_k = beta*T*(1 + beta*rho)**(k-1)``; summing the geometric series
  over ``L`` hops and imposing the deadline yields
  ``beta*rho <= x - 1``, i.e. the UB above.  No route selection can be
  safe above UB.

Both reproduce the paper's numeric anchors for the VoIP scenario
(LB = 0.30, UB = 0.61 — Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = [
    "theorem4_lower_bound",
    "theorem4_upper_bound",
    "UtilizationBounds",
    "utilization_bounds",
]


def _validate(fan_in: int, diameter: int, burst: float, rate: float,
              deadline: float) -> None:
    if fan_in < 2:
        raise ConfigurationError(
            f"Theorem 4 requires N >= 2 input links, got {fan_in}"
        )
    if diameter < 1:
        raise ConfigurationError(f"diameter must be >= 1, got {diameter}")
    if burst <= 0:
        raise ConfigurationError(f"burst must be positive, got {burst}")
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    if deadline <= 0:
        raise ConfigurationError(f"deadline must be positive, got {deadline}")


def theorem4_lower_bound(
    fan_in: int, diameter: int, burst: float, rate: float, deadline: float
) -> float:
    """Guaranteed-achievable utilization (Theorem 4, left inequality).

    Safe for *any* topology of diameter <= ``diameter`` and any route
    selection whose paths stay within the diameter.
    """
    _validate(fan_in, diameter, burst, rate, deadline)
    n, l = float(fan_in), float(diameter)
    ratio = l * burst / (deadline * rate)
    lb = n / ((ratio + (l - 1.0)) * (n - 1.0) + 1.0)
    return min(lb, 1.0)


def theorem4_upper_bound(
    fan_in: int, diameter: int, burst: float, rate: float, deadline: float
) -> float:
    """Utilization no route selection can exceed (Theorem 4, right side)."""
    _validate(fan_in, diameter, burst, rate, deadline)
    n, l = float(fan_in), float(diameter)
    x = (deadline * rate / burst + 1.0) ** (1.0 / l)
    ub = n * (x - 1.0) / (n + x - 2.0)
    return min(ub, 1.0)


@dataclass(frozen=True)
class UtilizationBounds:
    """The Theorem 4 interval, with the parameters that produced it."""

    lower: float
    upper: float
    fan_in: int
    diameter: int
    burst: float
    rate: float
    deadline: float


def utilization_bounds(
    fan_in: int, diameter: int, burst: float, rate: float, deadline: float
) -> UtilizationBounds:
    """Both Theorem 4 bounds; raises if they are inconsistent (LB > UB)."""
    lb = theorem4_lower_bound(fan_in, diameter, burst, rate, deadline)
    ub = theorem4_upper_bound(fan_in, diameter, burst, rate, deadline)
    if lb > ub + 1e-12:
        raise ConfigurationError(
            f"inconsistent Theorem 4 bounds: LB {lb:.4f} > UB {ub:.4f}"
        )
    return UtilizationBounds(
        lower=lb,
        upper=ub,
        fan_in=fan_in,
        diameter=diameter,
        burst=burst,
        rate=rate,
        deadline=deadline,
    )
