"""Maximizing utilization by safe route selection (Section 5.3).

Binary search over the utilization assignment: the interval is initialized
with the Theorem 4 bounds, the midpoint is tested by running a route
selection strategy (the Section 5.2 heuristic, or fixed shortest-path
routes for the baseline), and the interval halves until it is narrower
than a resolution threshold.  The best *feasible* utilization found and
its witnessing route set are returned.

Feasibility of a greedy heuristic is not theoretically monotone in
``alpha``, but the paper (and practice) treat it as such; the search keeps
the highest succeeding midpoint, which makes the result a certified safe
assignment regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..analysis.delays import single_class_delays
from ..analysis.fixedpoint import FixedPointWorkspace
from ..obs import OBS
from ..errors import ConfigurationError, InfeasibleUtilization
from ..topology.network import Network
from ..topology.properties import analyze
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import TrafficClass
from ..routing.heuristic import HeuristicOptions, SafeRouteSelector
from ..routing.shortest import shortest_path_routes
from .bounds import UtilizationBounds, utilization_bounds

__all__ = [
    "MaximizationResult",
    "binary_search_max_alpha",
    "max_utilization_heuristic",
    "max_utilization_shortest_path",
]

Pair = Tuple[Hashable, Hashable]
RouteMap = Dict[Pair, List[Hashable]]

#: Default resolution of the binary search on utilization.
DEFAULT_RESOLUTION = 0.005


@dataclass
class MaximizationResult:
    """Outcome of a maximize-utilization run.

    Attributes
    ----------
    alpha:
        Highest certified-safe utilization found.
    routes:
        The witnessing route set for ``alpha``.
    bounds:
        The Theorem 4 interval that seeded the search.
    evaluations:
        ``[(alpha, feasible)]`` trace of the binary search.
    """

    alpha: float
    routes: RouteMap
    bounds: UtilizationBounds
    evaluations: List[Tuple[float, bool]]
    method: str

    @property
    def num_probes(self) -> int:
        return len(self.evaluations)


def binary_search_max_alpha(
    feasible: Callable[..., Any],
    low: float,
    high: float,
    *,
    resolution: float = DEFAULT_RESOLUTION,
    stateful: bool = False,
) -> Tuple[float, RouteMap, List[Tuple[float, bool]]]:
    """Generic bisection on a feasibility oracle.

    ``feasible(alpha)`` returns a route map when a safe selection exists at
    ``alpha`` and ``None`` otherwise.  ``low`` is probed first (it must
    generally succeed — Theorem 4 guarantees it for the standard setup);
    if even ``low`` fails, :class:`InfeasibleUtilization` is raised.

    With ``stateful=True`` the oracle is called as
    ``feasible(alpha, state)`` and must return ``None`` or a
    ``(routes, state)`` pair; the state of the **highest feasible probe**
    is threaded into every later call.  Because bisection only probes
    above the best feasible alpha, a converged delay vector returned as
    state is a sound warm start for all subsequent probes (the Theorem 3
    map is monotone in ``alpha``, so the least fixed point only grows).
    """
    if resolution <= 0:
        raise ConfigurationError("resolution must be positive")
    if not (0.0 < low <= high <= 1.0):
        raise ConfigurationError(
            f"need 0 < low <= high <= 1, got [{low}, {high}]"
        )
    evaluations: List[Tuple[float, bool]] = []

    def probe(alpha: float, state: Any) -> Optional[Tuple[RouteMap, Any]]:
        if stateful:
            return feasible(alpha, state)
        routes = feasible(alpha)
        return None if routes is None else (routes, None)

    state: Any = None
    outcome = probe(low, state)
    evaluations.append((low, outcome is not None))
    if outcome is None:
        raise InfeasibleUtilization(low, high)
    best_alpha = low
    best_routes, state = outcome

    lo, hi = low, high
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        outcome = probe(mid, state)
        evaluations.append((mid, outcome is not None))
        if outcome is not None:
            best_alpha = mid
            best_routes, state = outcome
            lo = mid
        else:
            hi = mid
    return best_alpha, best_routes, evaluations


def _theorem4_interval(
    network: Network, traffic_class: TrafficClass
) -> UtilizationBounds:
    report = analyze(network)
    return utilization_bounds(
        fan_in=report.max_degree,
        diameter=report.diameter,
        burst=traffic_class.burst,
        rate=traffic_class.rate,
        deadline=traffic_class.deadline,
    )


def max_utilization_heuristic(
    network: Network,
    pairs: Sequence[Pair],
    traffic_class: TrafficClass,
    *,
    options: HeuristicOptions = HeuristicOptions(),
    n_mode: str = "uniform",
    resolution: float = DEFAULT_RESOLUTION,
    sp_fallback: bool = True,
    warm_probes: bool = True,
) -> MaximizationResult:
    """Maximum safe utilization achievable by the Section 5.2 heuristic.

    The greedy no-backtrack heuristic is not complete: near the Theorem 4
    lower bound — which is *constructively proven via shortest-path
    routing* — its early min-delay detours can strand a later pair even
    though the SP selection is safe.  With ``sp_fallback`` (default), a
    probe the heuristic fails is retried with verified shortest-path
    routes, so the search never reports less than the guaranteed bound;
    disable it to study the bare heuristic.

    One selector (and its candidate, ordering, and solver-buffer caches)
    serves every probe of the binary search; with ``warm_probes`` the SP
    fallback checks also warm-start from the converged delay vector of
    the best feasible probe so far (sound — see
    :func:`binary_search_max_alpha`).
    """
    bounds = _theorem4_interval(network, traffic_class)
    selector = SafeRouteSelector(
        network, traffic_class, options=options, n_mode=n_mode
    )
    graph = selector.graph
    sp_routes = shortest_path_routes(network, pairs) if sp_fallback else None
    sp_paths = list(sp_routes.values()) if sp_routes is not None else None
    workspace = FixedPointWorkspace()

    def feasible(alpha: float, sp_warm) -> Optional[Tuple[RouteMap, Any]]:
        outcome = selector.select(pairs, alpha)
        if outcome.success:
            # The heuristic's own probes warm-start internally per pair;
            # keep the SP-fallback warm state from the last SP success.
            return outcome.routes, sp_warm
        if sp_paths is not None:
            check = single_class_delays(
                graph, sp_paths, traffic_class, alpha,
                n_mode=n_mode,
                warm_start=sp_warm if warm_probes else None,
                workspace=workspace,
            )
            if OBS.enabled and warm_probes and sp_warm is not None:
                OBS.registry.counter(
                    "repro_search_warm_probes_total", method="sp_fallback"
                ).inc()
            if check.safe:
                return dict(sp_routes), check.server_delays
        return None

    alpha, routes, evals = binary_search_max_alpha(
        feasible,
        bounds.lower,
        bounds.upper,
        resolution=resolution,
        stateful=True,
    )
    return MaximizationResult(
        alpha=alpha,
        routes=routes,
        bounds=bounds,
        evaluations=evals,
        method="heuristic",
    )


def max_utilization_shortest_path(
    network: Network,
    pairs: Sequence[Pair],
    traffic_class: TrafficClass,
    *,
    n_mode: str = "uniform",
    resolution: float = DEFAULT_RESOLUTION,
    warm_probes: bool = True,
) -> MaximizationResult:
    """Maximum safe utilization with fixed shortest-path routes (baseline).

    With ``warm_probes`` (default) each probe warm-starts the fixed-point
    iteration from the converged delay vector of the best feasible probe
    so far, and all probes share one solver workspace; see
    :func:`binary_search_max_alpha` for why this is sound.
    """
    bounds = _theorem4_interval(network, traffic_class)
    graph = LinkServerGraph(network)
    routes = shortest_path_routes(network, pairs)
    paths = list(routes.values())
    workspace = FixedPointWorkspace()

    def feasible(alpha: float, warm) -> Optional[Tuple[RouteMap, Any]]:
        result = single_class_delays(
            graph, paths, traffic_class, alpha,
            n_mode=n_mode,
            warm_start=warm if warm_probes else None,
            workspace=workspace,
        )
        if OBS.enabled and warm_probes and warm is not None:
            OBS.registry.counter(
                "repro_search_warm_probes_total", method="shortest_path"
            ).inc()
        if not result.safe:
            return None
        return dict(routes), result.server_delays

    alpha, best_routes, evals = binary_search_max_alpha(
        feasible,
        bounds.lower,
        bounds.upper,
        resolution=resolution,
        stateful=True,
    )
    return MaximizationResult(
        alpha=alpha,
        routes=best_routes,
        bounds=bounds,
        evaluations=evals,
        method="shortest-path",
    )
