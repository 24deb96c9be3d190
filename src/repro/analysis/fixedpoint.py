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

There is one loop.  Every ``Z`` in this package has the form
``d = f(Y(d))``: the loop computes ``Y`` from the route system and hands
it to the map's ``apply(y, out)``, which writes ``f(Y)`` in place —
:class:`Theorem3Map` for one real-time class, and
:class:`~repro.analysis.multiclass.Theorem5Map` for several, stacked into
one route system.  The cumulative-sum pass shared by ``Y`` and the
per-route delay sums is computed once per iteration, and every
intermediate lives in the buffers of a :class:`FixedPointWorkspace`, so
the inner loop performs zero heap allocation.  Route selection solves
thousands of fixed points per configuration run and passes one
workspace to all of them; without one, a solve makes its own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Protocol, Union

import numpy as np

from ..errors import AnalysisError
from ..obs import DEFAULT_ITERATION_BUCKETS, OBS
from .routesystem import RouteSystem, _grown

__all__ = [
    "DEFAULT_TOLERANCE",
    "FixedPointResult",
    "FixedPointWorkspace",
    "Theorem3Map",
    "solve_fixed_point",
]

logger = logging.getLogger("repro.analysis.fixedpoint")

#: Absolute convergence tolerance on per-server delays, in seconds.
#: 1 ns is far below any meaningful queueing-delay scale in the model.
DEFAULT_TOLERANCE = 1e-9

#: Delay ceiling (seconds) above which the iteration is declared divergent.
DEFAULT_CEILING = 1e6

#: Iteration budget of one solve.
MAX_ITERATIONS = 100_000

#: Per-route deadlines: one bound per route, or a scalar applied to all.
Deadlines = Union[np.ndarray, float, None]


class DelayMap(Protocol):
    """The per-server part of ``Z``: delays from upstream jitter ``Y``."""

    def apply(self, y: np.ndarray, out: np.ndarray) -> None:
        """Write ``Z`` for upstream-jitter vector ``y`` into ``out``."""


@dataclass
class FixedPointResult:
    """Outcome of a delay fixed-point computation.

    Attributes
    ----------
    delays:
        ``float64[S]`` per-server delay bounds at the final iterate.
    route_delays:
        ``float64[R]`` end-to-end bounds per route at the final iterate.
    converged:
        True if the iteration reached the fixed point within tolerance.
    deadline_violated:
        True if the computation stopped early because some route's
        end-to-end delay exceeded its deadline (sound: delays only grow).
    diverged:
        True if the iterates crossed the divergence ceiling.
    iterations:
        Number of iterations performed.
    residual:
        Largest per-server delay change at the final iteration.
    """

    delays: np.ndarray
    route_delays: np.ndarray
    converged: bool
    deadline_violated: bool
    diverged: bool
    iterations: int
    residual: float

    @property
    def safe(self) -> bool:
        """Converged with no deadline violation."""
        return self.converged and not self.deadline_violated


class FixedPointWorkspace:
    """Reusable buffers for allocation-free fixed-point iteration.

    One workspace serves any sequence of solves; ``ensure`` is called at
    the start of each solve and only reallocates when a dimension first
    exceeds the high-water mark, so a workspace owned by a selector
    amortizes to zero allocation across an entire binary search.  Buffers
    are handed out as views of the live prefix, so callers must copy
    anything they keep (the solver copies its result vectors before
    returning).
    """

    __slots__ = (
        "_servers",
        "_occ",
        "_routes",
        "d",
        "d_next",
        "y",
        "work",
        "d_occ",
        "csum",
        "prefix",
        "base",
        "route_lo",
        "route_hi",
        "route_d",
        "route_cmp",
        "resizes",
    )

    def __init__(self):
        self._servers = 0
        self._occ = 0
        self._routes = 0
        self.resizes = 0
        self._alloc_servers(16)
        self._alloc_occ(64)
        self._alloc_routes(16)

    def _alloc_servers(self, n: int) -> None:
        self._servers = n
        self.d = np.empty(n, dtype=np.float64)
        self.d_next = np.empty(n, dtype=np.float64)
        self.y = np.empty(n, dtype=np.float64)
        self.work = np.empty(n, dtype=np.float64)

    def _alloc_occ(self, n: int) -> None:
        self._occ = n
        self.d_occ = np.empty(n, dtype=np.float64)
        self.csum = np.empty(n + 1, dtype=np.float64)
        self.prefix = np.empty(n, dtype=np.float64)
        self.base = np.empty(n, dtype=np.float64)

    def _alloc_routes(self, n: int) -> None:
        self._routes = n
        self.route_lo = np.empty(n, dtype=np.float64)
        self.route_hi = np.empty(n, dtype=np.float64)
        self.route_d = np.empty(n, dtype=np.float64)
        self.route_cmp = np.empty(n, dtype=bool)

    def ensure(self, num_servers: int, num_occ: int, num_routes: int) -> None:
        """Make every buffer large enough for the given system sizes."""
        if num_servers > self._servers:
            self._alloc_servers(_grown(num_servers, self._servers))
            self.resizes += 1
        if num_occ > self._occ:
            self._alloc_occ(_grown(num_occ, self._occ))
            self.resizes += 1
        if num_routes > self._routes:
            self._alloc_routes(_grown(num_routes, self._routes))
            self.resizes += 1


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
    workspace: Optional[FixedPointWorkspace] = None,
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
    workspace:
        Buffers to reuse (e.g. across the probes of a binary search);
        a solve without one makes its own.
    """
    if workspace is None:
        workspace = FixedPointWorkspace()
    # Fast path: observability off (the default) adds one attribute load.
    if not OBS.enabled:
        return _solve(
            system,
            update,
            workspace=workspace,
            initial=initial,
            deadlines=deadlines,
        )

    warm = initial is not None
    with OBS.span(
        "fixedpoint.solve",
        routes=system.num_routes,
        servers=system.num_servers,
        warm_start=warm,
    ) as sp:
        result = _solve(
            system,
            update,
            workspace=workspace,
            initial=initial,
            deadlines=deadlines,
        )
        outcome = _outcome(result)
        sp.set(iterations=result.iterations, outcome=outcome)
    reg = OBS.registry
    reg.counter("repro_fixedpoint_solves_total", outcome=outcome).inc()
    reg.counter("repro_fixedpoint_iterations_total").inc(result.iterations)
    reg.histogram(
        "repro_fixedpoint_iterations", buckets=DEFAULT_ITERATION_BUCKETS
    ).observe(result.iterations)
    reg.gauge("repro_fixedpoint_last_residual").set(result.residual)
    if warm:
        reg.counter("repro_fixedpoint_warm_starts_total").inc()
    if result.deadline_violated and not result.converged:
        reg.counter("repro_fixedpoint_early_failures_total").inc()
    if result.diverged:
        logger.debug(
            "fixed point diverged after %d iterations "
            "(%d routes, ceiling crossed)",
            result.iterations,
            system.num_routes,
        )
    return result


def _outcome(result: FixedPointResult) -> str:
    if result.converged:
        return "converged"
    if result.deadline_violated:
        return "deadline_violated"
    if result.diverged:
        return "diverged"
    return "budget_exhausted"


def _solve(
    system: RouteSystem,
    update: DelayMap,
    *,
    workspace: FixedPointWorkspace,
    initial: Optional[np.ndarray],
    deadlines: Deadlines,
) -> FixedPointResult:
    ws = workspace
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
    ws.ensure(S, M, R)

    occ_server = system.occ_server
    occ_start = system.occ_start
    starts = system.route_start
    start_lo = starts[:-1]
    start_hi = starts[1:]

    d = ws.d[:S]
    d_next = ws.d_next[:S]
    y = ws.y[:S]
    work = ws.work[:S]
    d_occ = ws.d_occ[:M]
    csum = ws.csum[: M + 1]
    prefix = ws.prefix[:M]
    base = ws.base[:M]
    lo_buf = ws.route_lo[:R]
    hi_buf = ws.route_hi[:R]
    route_d = ws.route_d[:R]
    route_cmp = ws.route_cmp[:R]

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
