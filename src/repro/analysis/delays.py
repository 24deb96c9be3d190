"""Configuration-time delay bounds for the two-class system (Section 5.1).

This is the paper's base model: one real-time class (plus implicit
best-effort traffic, which static priority makes invisible to the analysis).
:func:`single_class_delays` runs the full Figure 2 pipeline for a set of
routes:

1. build the Theorem 3 update map ``d_k = beta_k * (T + rho * Y_k)``,
2. iterate to the least fixed point (:mod:`repro.analysis.fixedpoint`),
3. report per-server and per-route end-to-end delay bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence

import numpy as np

from ..errors import AnalysisError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import TrafficClass
from .beta import beta_coefficient
from .fixedpoint import (
    FixedPointResult,
    FixedPointWorkspace,
    Theorem3Map,
    solve_fixed_point,
)
from .routesystem import RouteSystem

__all__ = [
    "resolve_fan_in",
    "theorem3_update",
    "SingleClassResult",
    "single_class_delays",
]


def resolve_fan_in(graph: LinkServerGraph) -> np.ndarray:
    """Per-server fan-in vector: every server uses the network-wide
    maximum fan-in ``N``, the one ``N`` the paper's analysis takes."""
    n = graph.uniform_fan_in()
    return np.full(graph.num_servers, n, dtype=np.float64)


def theorem3_update(
    system: RouteSystem,
    burst: float,
    rate: float,
    alpha: float,
    fan_in: np.ndarray,
    *,
    beta_full: Optional[np.ndarray] = None,
) -> Theorem3Map:
    """The monotone map ``Z`` of eq. (14) for the two-class system.

    Servers not traversed by any route carry no real-time traffic and keep
    zero delay; this keeps reported vectors clean and does not affect any
    route sum.

    Returns a :class:`~repro.analysis.fixedpoint.Theorem3Map` for
    :func:`~repro.analysis.fixedpoint.solve_fixed_point`.  ``beta_full``
    optionally supplies a precomputed unmasked
    ``beta_coefficient(alpha, rate, fan_in)`` so callers probing many
    route sets at one utilization skip recomputing it per trial.
    """
    if burst < 0 or rate <= 0:
        raise AnalysisError("need burst >= 0 and rate > 0")
    if beta_full is None:
        beta_full = np.asarray(beta_coefficient(alpha, rate, fan_in))
    if beta_full.shape != (system.num_servers,):
        raise AnalysisError(
            f"fan_in shape {beta_full.shape} does not match "
            f"{system.num_servers} servers"
        )
    beta = np.where(system.touched_servers, beta_full, 0.0)
    return Theorem3Map(system, burst, rate, beta)


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
    *,
    warm_start: Optional[np.ndarray] = None,
    workspace: Optional[FixedPointWorkspace] = None,
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
    warm_start:
        Optional per-server delay vector known to lie below the least
        fixed point (e.g. the solution for a subset of the routes, or for
        the same routes at a lower ``alpha``).
    workspace:
        Optional solver buffers to reuse across calls (e.g. by the binary
        search over ``alpha``).
    """
    if not traffic_class.is_realtime:
        raise AnalysisError(
            f"class {traffic_class.name!r} has no finite deadline"
        )
    server_routes = graph.routes_servers(router_paths)
    system = RouteSystem(server_routes, graph.num_servers)
    fan_in = resolve_fan_in(graph)
    update = theorem3_update(
        system, traffic_class.burst, traffic_class.rate, alpha, fan_in
    )
    # The iteration stops as soon as some route provably misses the
    # deadline.
    result = solve_fixed_point(
        system,
        update,
        initial=warm_start,
        deadlines=traffic_class.deadline,
        workspace=workspace,
    )
    return SingleClassResult(
        fixed_point=result,
        system=system,
        alpha=alpha,
        deadline=traffic_class.deadline,
    )
