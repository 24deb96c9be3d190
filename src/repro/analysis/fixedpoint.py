"""The delay fixed point (Section 5.1.1).

The per-server delay bounds depend circularly on each other through the
upstream-jitter terms ``Y_k`` (eq. 6): ``d = Z(d)`` (eq. 14).  Because
``Z`` is monotone nondecreasing and the iteration starts from the
zero-jitter vector ``d0 = beta * T <= Z(d0)``, the iterates increase
monotonically and converge to the *least* fixed point whenever one exists.
Two practical consequences are exploited here:

* **warm starts** — any vector known to be below the least fixed point
  (e.g. the converged solution of a subset of the routes, or the solution
  of the same routes at a lower utilization) is a valid starting point and
  strictly reduces iteration count during route selection and during the
  Section 5.3 binary search;
* **sound early failure** — per-route end-to-end delays are monotone in
  the iterates, so as soon as some route exceeds its deadline it will
  always exceed it, and verification can stop immediately.

A diverging iteration (utilization too high for this route structure)
is reported as ``converged=False`` with ``diverged=True`` once the iterates
cross ``DEFAULT_CEILING``, or when the iteration budget is exhausted.
The stop rules and the result record live in
:mod:`repro.analysis.theorem3`, beside the plain-Python one-class solve
that verification runs (the same system, solved in dependency order).

There is one loop.  Every ``Z`` in this package has the form
``d = f(Y(d))``: the loop computes ``Y`` from the route system and hands
it to the map's ``apply(y, out)``, which writes ``f(Y)`` in place —
:class:`Theorem3Map` for one real-time class, and
:class:`~repro.analysis.multiclass.Theorem5Map` for several, stacked into
one route system.  The cumulative-sum pass shared by ``Y`` and the
per-route delay sums is computed once per iteration, and every
intermediate lives in buffers the solve allocates once, so the inner
loop performs zero heap allocation.
"""

from __future__ import annotations

from typing import Optional, Protocol, Union

import numpy as np

from ..errors import AnalysisError
from .routesystem import RouteSystem
from .theorem3 import (
    DEFAULT_CEILING,
    DEFAULT_TOLERANCE,
    MAX_ITERATIONS,
    FixedPointResult,
    observed_solve,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "FixedPointResult",
    "Theorem3Map",
    "solve_fixed_point",
]

#: Per-route deadlines: one bound per route, or a scalar applied to all.
Deadlines = Union[np.ndarray, float, None]


class DelayMap(Protocol):
    """The per-server part of ``Z``: delays from upstream jitter ``Y``."""

    def apply(self, y: np.ndarray, out: np.ndarray) -> None:
        """Write ``Z`` for upstream-jitter vector ``y`` into ``out``."""


class Theorem3Map:
    """The monotone eq. (14) map ``Z(d) = beta * (T + rho * Y(d))``.

    ``beta`` is the per-server Theorem 3 coefficient already masked to
    zero on servers no route touches.  The solver calls :meth:`apply`
    with ``Y``; calling the object evaluates ``Z(d)`` with the route
    system's allocating kernels.
    """

    __slots__ = ("system", "burst", "rate", "beta")

    def __init__(self, system, burst: float, rate: float, beta: np.ndarray):
        self.system = system
        self.burst = float(burst)
        self.rate = float(rate)
        self.beta = beta

    def apply(self, y: np.ndarray, out: np.ndarray) -> None:
        np.multiply(y, self.rate, out=out)
        np.add(out, self.burst, out=out)
        np.multiply(out, self.beta, out=out)

    def __call__(self, d: np.ndarray) -> np.ndarray:
        out = np.empty(self.system.num_servers, dtype=np.float64)
        self.apply(self.system.upstream_delays(d), out)
        return out


def solve_fixed_point(
    system: RouteSystem,
    update: DelayMap,
    *,
    initial: Optional[np.ndarray] = None,
    deadlines: Deadlines = None,
) -> FixedPointResult:
    """Iterate ``d <- update(d)`` to the least fixed point.

    Parameters
    ----------
    system:
        Route system giving ``Y`` to ``update`` and the per-route delays
        (for the deadline early exit and the reported ``route_delays``).
    update:
        The monotone map: ``update.apply(y, out)`` writes ``Z`` for the
        upstream-jitter vector ``y`` into ``out``.  For the single-class
        Theorem 3 map use :func:`repro.analysis.delays.theorem3_update`.
    initial:
        Warm-start vector (must be pointwise <= the least fixed point —
        callers are responsible; ``update(d0) >= d0`` is checked).
    deadlines:
        Optional per-route deadlines enabling early failure: a
        ``float64[R]`` array or a scalar applied to every route.
    """
    return observed_solve(
        lambda: _solve(
            system, update, initial=initial, deadlines=deadlines
        ),
        routes=system.num_routes,
        servers=system.num_servers,
        warm=initial is not None,
    )


def _solve(
    system: RouteSystem,
    update: DelayMap,
    *,
    initial: Optional[np.ndarray],
    deadlines: Deadlines,
) -> FixedPointResult:
    S = system.num_servers
    M = system.num_occurrences
    R = system.num_routes
    if deadlines is not None:
        deadlines = np.asarray(deadlines, dtype=np.float64)
        if deadlines.ndim and deadlines.shape != (R,):
            raise AnalysisError(
                f"deadlines has shape {deadlines.shape}, expected a scalar "
                f"or ({R},)"
            )

    occ_server = system.occ_server
    occ_start = system.occ_start
    starts = system.route_start
    start_lo = starts[:-1]
    start_hi = starts[1:]

    d, d_next, y, work = np.empty((4, S))
    d_occ, prefix, base = np.empty((3, M))
    csum = np.empty(M + 1)
    lo_buf, hi_buf, route_d = np.empty((3, R))
    route_cmp = np.empty(R, dtype=bool)

    csum_tail = csum[1:]
    csum_head = csum[:M]

    # ndarray method calls bypass the np.take/np.cumsum dispatch wrappers
    # (measurable at thousands of solves per selection); the underlying
    # kernels — and therefore the results — are identical.
    def fill_csum(vec: np.ndarray) -> None:
        vec.take(occ_server, out=d_occ)
        csum[0] = 0.0
        d_occ.cumsum(out=csum_tail)

    def fill_route_delays() -> None:
        csum.take(start_hi, out=hi_buf)
        csum.take(start_lo, out=lo_buf)
        np.subtract(hi_buf, lo_buf, out=route_d)

    def apply_update(out: np.ndarray) -> None:
        # ``csum`` must already hold the cumulative sums of the vector
        # being updated; ``out`` may alias it safely (only csum is read).
        csum.take(occ_start, out=base)
        np.subtract(csum_head, base, out=prefix)
        y.fill(0.0)
        np.maximum.at(y, occ_server, prefix)
        update.apply(y, out)

    if initial is None:
        d.fill(0.0)
        fill_csum(d)
        apply_update(d)
    else:
        arr = np.asarray(initial, dtype=np.float64)
        if arr.shape != (S,):
            raise AnalysisError(
                f"initial vector has shape {arr.shape}, expected ({S},)"
            )
        d[:] = arr
        fill_csum(d)
        apply_update(d_next)
        np.subtract(d, DEFAULT_TOLERANCE, out=work)
        if np.any(d_next < work):  # setup-time check; one bool temp is fine
            raise AnalysisError(
                "warm start is above the least fixed point "
                "(update decreased some delay); start from zero instead"
            )
        d, d_next = d_next, d

    def make_result(converged, violated, diverged, iteration, residual):
        return FixedPointResult(
            delays=d.copy(),
            route_delays=route_d.copy(),
            converged=converged,
            deadline_violated=violated,
            diverged=diverged,
            iterations=iteration,
            residual=residual,
        )

    residual = float("inf")
    for iteration in range(1, MAX_ITERATIONS + 1):
        fill_csum(d)
        fill_route_delays()
        if deadlines is not None:
            np.greater(route_d, deadlines, out=route_cmp)
            if route_cmp.any():
                return make_result(False, True, False, iteration, residual)
        if float(d.max(initial=0.0)) > DEFAULT_CEILING:
            return make_result(False, False, True, iteration, residual)
        apply_update(d_next)
        np.subtract(d_next, d, out=work)
        np.abs(work, out=work)
        residual = float(work.max(initial=0.0))
        d, d_next = d_next, d
        if residual <= DEFAULT_TOLERANCE:
            fill_csum(d)
            fill_route_delays()
            violated = False
            if deadlines is not None:
                np.greater(route_d, deadlines, out=route_cmp)
                violated = bool(route_cmp.any())
            return make_result(True, violated, False, iteration, residual)

    fill_csum(d)
    fill_route_delays()
    return make_result(False, False, False, MAX_ITERATIONS, residual)
