"""Maximizing utilization by safe route selection (Section 5.3).

Binary search over the utilization assignment: the interval is initialized
with the Theorem 4 bounds, the midpoint is tested by running a route
selection strategy (the Section 5.2 heuristic, or fixed shortest-path
routes for the baseline), and the interval halves until it is narrower
than a resolution threshold.  The best *feasible* utilization found and
its witnessing route set are returned.

:func:`bisect_alpha` is the package's one search on a verdict in
``alpha``: the Section 5.3 searches here, the certified headroom of
fixed routes (:func:`critical_alpha`) and the multi-class proportional
scale (:func:`repro.config.procedures.maximize_multiclass_scale`) all
call it, and each of its probes warm-starts from the last feasible one.

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

from ..analysis.delays import route_system, solve_single_class
from ..errors import AnalysisError, ConfigurationError, InfeasibleUtilization
from ..topology.network import Network
from ..topology.properties import analyze
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import TrafficClass
from ..routing.heuristic import HeuristicOptions, SafeRouteSelector
from ..routing.shortest import shortest_path_routes
from .bounds import UtilizationBounds, utilization_bounds

__all__ = [
    "MaximizationResult",
    "bisect_alpha",
    "critical_alpha",
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


def bisect_alpha(
    feasible: Callable[[float, Any], Optional[Tuple[Any, Any]]],
    lo: float,
    hi: float,
    *,
    resolution: float = DEFAULT_RESOLUTION,
) -> Tuple[float, Any, List[Tuple[float, bool]]]:
    """The Section 5.3 bisection: the largest ``alpha`` in ``[lo, hi]``
    the oracle accepts, to within ``resolution``.

    ``feasible(alpha, warm)`` returns ``None`` or ``(witness, delays)``.
    ``warm`` is the ``delays`` of the **highest feasible probe** so far
    (``None`` before the first): bisection only probes above it, and the
    least delay fixed point never decreases as ``alpha`` grows, so it is
    a sound warm start for every later probe.

    ``lo`` is probed first unless it is 0 (no real-time traffic: nothing
    to certify).  Returns ``(alpha, witness, evaluations)`` with
    ``evaluations`` the ``[(alpha, feasible)]`` trace; raises
    :class:`InfeasibleUtilization` when no probe succeeds.
    """
    if not resolution > 0:
        raise ConfigurationError(
            f"resolution must be positive, got {resolution}"
        )
    if not 0.0 <= lo <= hi:
        raise ConfigurationError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
    low, high = lo, hi
    evaluations: List[Tuple[float, bool]] = []
    best: Optional[Tuple[float, Any]] = None
    warm: Any = None

    def probe(alpha: float) -> bool:
        nonlocal best, warm
        outcome = feasible(alpha, warm)
        evaluations.append((alpha, outcome is not None))
        if outcome is None:
            return False
        best = alpha, outcome[0]
        warm = outcome[1]
        return True

    if lo > 0 and not probe(lo):
        raise InfeasibleUtilization(low, high)
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    if best is None:
        raise InfeasibleUtilization(low, high)
    return best[0], best[1], evaluations


#: The lowest utilization :func:`critical_alpha` probes.
CRITICAL_ALPHA_FLOOR = 1e-3


def critical_alpha(
    graph: LinkServerGraph,
    router_paths: Sequence[Sequence[Hashable]],
    traffic_class: TrafficClass,
    *,
    resolution: float = 1e-3,
) -> float:
    """Largest utilization for which these fixed routes verify: how much
    higher could the utilization of a verified configuration go before
    its certificate breaks?

    The routes are compiled once, and each probe solves the numpy fixed
    point of :func:`~repro.analysis.delays.solve_single_class` on them;
    :func:`~repro.analysis.verification.verify_assignment` runs the
    plain-Python :func:`~repro.analysis.theorem3.theorem3_fixed_point`
    on the same system.  Two tests pin their verdicts together:
    ``tests/test_theorem3_differential.py`` (the same verdict on every
    system it draws), and
    ``tests/test_control_plane.py::TestCertifyLadder::test_every_admitted_rung_verifies_on_its_own``,
    which certifies at this function's answer on MCI and NSFNET.  So
    the answer is a certificate, not an estimate.  Returns 1.0 if it
    verifies there and raises :class:`AnalysisError` if even
    ``CRITICAL_ALPHA_FLOOR`` does not.
    """

    system = route_system(graph, router_paths)

    def safe(alpha: float, warm) -> Optional[Tuple[Any, np.ndarray]]:
        result = solve_single_class(
            graph, system, traffic_class, alpha, warm_start=warm
        )
        return (result, result.server_delays) if result.safe else None

    if safe(1.0, None) is not None:
        return 1.0
    try:
        alpha, _, _ = bisect_alpha(
            safe, CRITICAL_ALPHA_FLOOR, 1.0, resolution=resolution
        )
    except InfeasibleUtilization:
        raise AnalysisError(
            f"routes do not verify even at alpha = {CRITICAL_ALPHA_FLOOR}"
        ) from None
    except ConfigurationError as exc:
        raise AnalysisError(str(exc)) from None
    return alpha


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
    resolution: float = DEFAULT_RESOLUTION,
) -> MaximizationResult:
    """Maximum safe utilization achievable by the Section 5.2 heuristic.

    The greedy no-backtrack heuristic is not complete: near the Theorem 4
    lower bound — which is *constructively proven via shortest-path
    routing* — its early min-delay detours can strand a later pair even
    though the SP selection is safe.  So a probe the heuristic fails is
    retried with verified shortest-path routes, and the search never
    reports less than the guaranteed bound.

    One selector (and its candidate and ordering caches) serves every
    probe of the binary search; the SP fallback checks
    warm-start from the converged delays of the last SP success (see
    :func:`bisect_alpha`).
    """
    bounds = _theorem4_interval(network, traffic_class)
    selector = SafeRouteSelector(network, traffic_class, options=options)
    graph = selector.graph
    sp_routes = shortest_path_routes(network, pairs)
    sp_system = route_system(graph, list(sp_routes.values()))

    def feasible(alpha: float, sp_warm) -> Optional[Tuple[RouteMap, Any]]:
        outcome = selector.select(pairs, alpha)
        if outcome.success:
            # The heuristic's own probes warm-start internally per pair;
            # keep the SP-fallback warm state from the last SP success.
            return outcome.routes, sp_warm
        check = solve_single_class(
            graph, sp_system, traffic_class, alpha, warm_start=sp_warm
        )
        if check.safe:
            return dict(sp_routes), check.server_delays
        return None

    alpha, routes, evals = bisect_alpha(
        feasible, bounds.lower, bounds.upper, resolution=resolution
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
    resolution: float = DEFAULT_RESOLUTION,
) -> MaximizationResult:
    """Maximum safe utilization with fixed shortest-path routes (baseline).

    Each probe warm-starts the fixed-point iteration from the converged
    delays of the best feasible probe so far (see :func:`bisect_alpha`).
    """
    bounds = _theorem4_interval(network, traffic_class)
    graph = LinkServerGraph(network)
    routes = shortest_path_routes(network, pairs)
    system = route_system(graph, list(routes.values()))

    def feasible(alpha: float, warm) -> Optional[Tuple[RouteMap, Any]]:
        result = solve_single_class(
            graph, system, traffic_class, alpha, warm_start=warm
        )
        if not result.safe:
            return None
        return dict(routes), result.server_delays

    alpha, best_routes, evals = bisect_alpha(
        feasible, bounds.lower, bounds.upper, resolution=resolution
    )
    return MaximizationResult(
        alpha=alpha,
        routes=best_routes,
        bounds=bounds,
        evaluations=evals,
        method="shortest-path",
    )
