"""Routing: shortest-path baseline, candidates, and the safe-route heuristic."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .candidates import CandidateGenerator, candidate_routes
    from .dependency import ServerDependencyGraph
    from .heuristic import HeuristicOptions, SafeRouteSelector, SelectionOutcome
    from .leastloaded import least_loaded_routes
    from .multiclass_heuristic import (
        MultiClassRouteSelector,
        MultiClassSelectionOutcome,
    )
    from .partition import (
        partition_by_link,
        partition_by_router,
        route_uses_link,
        route_uses_router,
    )
    from .shortest import route_lengths, shortest_path_route, shortest_path_routes

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".candidates": ("CandidateGenerator", "candidate_routes"),
    ".dependency": ("ServerDependencyGraph",),
    ".heuristic": ("HeuristicOptions", "SafeRouteSelector", "SelectionOutcome"),
    ".leastloaded": ("least_loaded_routes",),
    ".multiclass_heuristic": ("MultiClassRouteSelector", "MultiClassSelectionOutcome"),
    ".partition": (
        "partition_by_link", "partition_by_router", "route_uses_link",
        "route_uses_router",
    ),
    ".shortest": ("route_lengths", "shortest_path_route", "shortest_path_routes"),
})
