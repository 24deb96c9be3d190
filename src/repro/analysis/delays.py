"""Configuration-time delay bounds for the two-class system (Section 5.1).

This is the paper's base model: one real-time class (plus implicit
best-effort traffic, which static priority makes invisible to the analysis).
:func:`single_class_delays` runs the full Figure 2 pipeline for a set of
routes:

1. compile the routes into a :class:`RouteSystem` (:func:`route_system`),
2. build the Theorem 3 update map ``d_k = beta * (T + rho * Y_k)``,
3. iterate to the least fixed point (:mod:`repro.analysis.fixedpoint`),
4. report per-server and per-route end-to-end delay bounds.

Steps 2-4 are :func:`solve_single_class`: a search that probes one
fixed route set at many ``alpha`` compiles it once and solves it per
probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np

from ..errors import AnalysisError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import TrafficClass
from .beta import beta_coefficient
from .fixedpoint import FixedPointResult, Theorem3Map, solve_fixed_point
from .routesystem import RouteSystem

__all__ = [
    "theorem3_update",
    "SingleClassResult",
    "route_system",
    "single_class_delays",
    "solve_single_class",
]


def theorem3_update(
    system: RouteSystem, burst: float, rate: float, beta: float
) -> Theorem3Map:
    """The monotone map ``Z`` of eq. (14) for the two-class system.

    ``beta`` is Theorem 3's coefficient at the network's one ``N``
    (:func:`~repro.analysis.beta.beta_coefficient`), the same on every
    server.  Servers not traversed by any route carry no real-time
    traffic and keep zero delay; this keeps reported vectors clean and
    does not affect any route sum.

    Returns a :class:`~repro.analysis.fixedpoint.Theorem3Map` for
    :func:`~repro.analysis.fixedpoint.solve_fixed_point`.
    """
    if burst < 0 or rate <= 0:
        raise AnalysisError("need burst >= 0 and rate > 0")
    return Theorem3Map(
        system, burst, rate, np.where(system.touched_servers, beta, 0.0)
    )


def _realtime(traffic_class: TrafficClass) -> None:
    if not traffic_class.is_realtime:
        raise AnalysisError(
            f"class {traffic_class.name!r} has no finite deadline"
        )


@dataclass
class SingleClassResult:
    """Delay bounds for the real-time class over a fixed route set.

    Wraps the raw :class:`FixedPointResult` with the route/server context
    needed to interpret it.
    """

    fixed_point: FixedPointResult
    system: RouteSystem
    alpha: float
    deadline: float

    @property
    def safe(self) -> bool:
        """All routes converged under the deadline."""
        return self.fixed_point.safe

    @property
    def server_delays(self) -> np.ndarray:
        return self.fixed_point.delays

    @property
    def route_delays(self) -> np.ndarray:
        return self.fixed_point.route_delays

    @property
    def worst_route_delay(self) -> float:
        rd = self.fixed_point.route_delays
        return float(rd.max()) if rd.size else 0.0

    @property
    def slack(self) -> float:
        """Deadline minus worst end-to-end delay (negative if violated)."""
        return self.deadline - self.worst_route_delay


def single_class_delays(
    graph: LinkServerGraph,
    router_paths: Sequence[Sequence[Hashable]],
    traffic_class: TrafficClass,
    alpha: float,
) -> SingleClassResult:
    """Compute configuration-time delay bounds for one real-time class.

    Parameters
    ----------
    graph:
        Link-server expansion of the topology.
    router_paths:
        One router-level path per (source, destination) pair.
    traffic_class:
        The real-time class (must have a finite deadline).
    alpha:
        Link-bandwidth fraction allocated to the class.
    """
    _realtime(traffic_class)
    return solve_single_class(
        graph, route_system(graph, router_paths), traffic_class, alpha
    )


def route_system(
    graph: LinkServerGraph, router_paths: Sequence[Sequence[Hashable]]
) -> RouteSystem:
    """The :class:`RouteSystem` of ``router_paths`` over ``graph``'s
    servers, what :func:`solve_single_class` solves."""
    return RouteSystem(graph.routes_servers(router_paths), graph.num_servers)


def solve_single_class(
    graph: LinkServerGraph,
    system: RouteSystem,
    traffic_class: TrafficClass,
    alpha: float,
    *,
    warm_start: Optional[np.ndarray] = None,
) -> SingleClassResult:
    """:func:`single_class_delays` of the routes compiled into
    ``system`` (:func:`route_system`), which it does not change.

    ``warm_start`` is an optional per-server delay vector known to lie
    below the least fixed point (e.g. the solution for a subset of the
    routes, or for the same routes at a lower ``alpha``).
    """
    _realtime(traffic_class)
    rate = traffic_class.rate
    update = theorem3_update(
        system, traffic_class.burst, rate,
        beta_coefficient(alpha, rate, graph.uniform_fan_in()),
    )
    # The iteration stops as soon as some route provably misses the
    # deadline.
    result = solve_fixed_point(
        system,
        update,
        initial=warm_start,
        deadlines=traffic_class.deadline,
    )
    return SingleClassResult(
        fixed_point=result,
        system=system,
        alpha=alpha,
        deadline=traffic_class.deadline,
    )
