"""The one-class Figure 2 fixed point in plain Python, and the stop
rules and result record every fixed-point solve shares.

:func:`theorem3_fixed_point` is what ``verify_assignment`` runs for a
registry with one real-time class — the paper's scenarios, and every
``serve`` start-up (``certify_ladder``, ``ConfiguredNetwork``).  It is
:func:`repro.analysis.delays.single_class_delays` restated over lists,
operation for operation, so that its delays, route delays, iteration
count and verdict are *bit-identical* to the numpy solver's (the
differential suite pins this): one left-to-right running sum of the
delays over the route occurrences, upstream delays as ``csum[k] -
csum[start]`` of that one sum, each server's ``Y`` their maximum, and
``d = (Y * rho + T) * beta``.  A process that only certifies a
configuration and then serves it never imports numpy; the route
searches, which push and pop thousands of routes through one route
system, keep the numpy solver of :mod:`repro.analysis.fixedpoint`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Any, Callable, Hashable, List, Optional, Sequence, TypeVar

from ..errors import AnalysisError
from ..obs import DEFAULT_ITERATION_BUCKETS, OBS

__all__ = [
    "DEFAULT_CEILING",
    "DEFAULT_TOLERANCE",
    "FixedPointResult",
    "MAX_ITERATIONS",
    "observed_solve",
    "theorem3_fixed_point",
]

logger = logging.getLogger("repro.analysis.fixedpoint")

#: Absolute convergence tolerance on per-server delays, in seconds.
#: 1 ns is far below any meaningful queueing-delay scale in the model.
DEFAULT_TOLERANCE = 1e-9

#: Delay ceiling (seconds) above which the iteration is declared divergent.
DEFAULT_CEILING = 1e6

#: Iteration budget of one solve.
MAX_ITERATIONS = 100_000

R = TypeVar("R", bound="FixedPointResult")


@dataclass
class FixedPointResult:
    """Outcome of a delay fixed-point computation.

    Attributes
    ----------
    delays:
        Per-server delay bounds at the final iterate (``float64[S]``
        from the numpy solver, a list of floats from
        :func:`theorem3_fixed_point`).
    route_delays:
        End-to-end bounds per route at the final iterate.
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

    delays: Any
    route_delays: Any
    converged: bool
    deadline_violated: bool
    diverged: bool
    iterations: int
    residual: float

    @property
    def safe(self) -> bool:
        """Converged with no deadline violation."""
        return self.converged and not self.deadline_violated


def _outcome(result: FixedPointResult) -> str:
    if result.converged:
        return "converged"
    if result.deadline_violated:
        return "deadline_violated"
    if result.diverged:
        return "diverged"
    return "budget_exhausted"


def observed_solve(
    solve: Callable[[], R], *, routes: int, servers: int, warm: bool
) -> R:
    """``solve()``, recorded as one fixed-point solve when
    observability is on: a ``fixedpoint.solve`` span and the
    ``repro_fixedpoint_*`` series, whichever solver ran."""
    if not OBS.enabled:
        return solve()
    with OBS.span(
        "fixedpoint.solve", routes=routes, servers=servers, warm_start=warm
    ) as sp:
        result = solve()
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
            routes,
        )
    return result


def theorem3_fixed_point(
    graph,
    router_paths: Sequence[Sequence[Hashable]],
    traffic_class,
    alpha: float,
    *,
    warm_start: Optional[Sequence[float]] = None,
) -> FixedPointResult:
    """``single_class_delays(...).fixed_point``, computed over lists.

    Same inputs, checks (raised in the same order, with the same
    messages), stop rules and results; ``delays`` and ``route_delays``
    are lists.  ``warm_start`` is any sequence of per-server delays
    known to lie below the least fixed point.
    """
    if not traffic_class.is_realtime:
        raise AnalysisError(
            f"class {traffic_class.name!r} has no finite deadline"
        )
    routes = graph.routes_servers(router_paths)
    S = graph.num_servers
    if S <= 0:
        raise AnalysisError("route system needs at least one server")
    occ_server: List[int] = []
    occ_start: List[int] = []
    route_start = [0]
    for i, servers in enumerate(routes):
        if not servers:
            raise AnalysisError(f"route {i} must be a non-empty 1-D array")
        start = len(occ_server)
        occ_server.extend(servers)
        occ_start.extend([start] * len(servers))
        route_start.append(len(occ_server))
    burst, rate = float(traffic_class.burst), float(traffic_class.rate)
    if burst < 0 or rate <= 0:
        raise AnalysisError("need burst >= 0 and rate > 0")
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise AnalysisError(
            f"class utilization must be in (0, 1], got {alpha}"
        )
    n = float(graph.uniform_fan_in())
    if n < 1:
        raise AnalysisError("server fan-in must be >= 1")
    # Theorem 3's beta, on the servers some route crosses; the rest
    # carry no real-time traffic and keep zero delay.
    coefficient = alpha * (n - 1.0) / (rate * (n - alpha))
    # Each touched server with the occurrences that cross it.
    crossings: dict = {}
    for i, k in enumerate(occ_server):
        crossings.setdefault(k, []).append(i)
    touched = sorted(crossings.items())
    ends, starts = route_start[1:], route_start[:-1]
    deadline = float(traffic_class.deadline)
    late = deadline.__lt__

    def running_sum(d: List[float]) -> List[float]:
        csum = [0.0]
        csum.extend(accumulate(map(d.__getitem__, occ_server)))
        return csum

    def route_delays(csum: List[float]) -> List[float]:
        return list(map(sub, map(csum.__getitem__, ends), map(csum.__getitem__, starts)))

    def update(csum: List[float]) -> List[float]:
        upstream = list(map(sub, csum, map(csum.__getitem__, occ_start)))
        out = [0.0] * S
        for k, crossing in touched:
            y = max(0.0, *map(upstream.__getitem__, crossing))
            out[k] = (y * rate + burst) * coefficient
        return out

    def solve() -> FixedPointResult:
        def result(converged, violated, diverged, iteration):
            return FixedPointResult(
                d, route_d, converged, violated, diverged, iteration, residual
            )

        start = [0.0] * S if warm_start is None else list(map(float, warm_start))
        if len(start) != S:
            raise AnalysisError(
                f"initial vector has shape ({len(start)},), expected ({S},)"
            )
        d = update(running_sum(start))
        if warm_start is not None:
            if any(new < old - DEFAULT_TOLERANCE for new, old in zip(d, start)):
                raise AnalysisError(
                    "warm start is above the least fixed point "
                    "(update decreased some delay); start from zero instead"
                )
        residual = float("inf")
        for iteration in range(1, MAX_ITERATIONS + 1):
            csum = running_sum(d)
            route_d = route_delays(csum)
            if any(map(late, route_d)):
                return result(False, True, False, iteration)
            if max(max(d), 0.0) > DEFAULT_CEILING:
                return result(False, False, True, iteration)
            d_next = update(csum)
            residual = max(max(map(abs, map(sub, d_next, d))), 0.0)
            d = d_next
            if residual <= DEFAULT_TOLERANCE:
                route_d = route_delays(running_sum(d))
                return result(True, any(map(late, route_d)), False, iteration)
        route_d = route_delays(running_sum(d))
        return result(False, False, False, MAX_ITERATIONS)

    return observed_solve(
        solve, routes=len(routes), servers=S, warm=warm_start is not None
    )
