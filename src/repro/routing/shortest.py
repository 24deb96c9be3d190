"""Shortest-path routing — the paper's comparison baseline (Section 6).

Hop-count shortest paths with deterministic (BFS insertion-order)
tie-breaking (:meth:`Network.shortest_paths_from`, path for path what
NetworkX's single-source search returns).  The Table 1 experiment compares
the maximum safe utilization under these routes against the Section 5.2
heuristic.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from ..errors import NoRouteError
from ..topology.network import Network

__all__ = ["shortest_path_route", "shortest_path_routes", "route_lengths"]

Pair = Tuple[Hashable, Hashable]


def shortest_path_route(
    network: Network, source: Hashable, destination: Hashable
) -> List[Hashable]:
    """One hop-count shortest path (deterministic tie-breaking)."""
    return shortest_path_routes(network, [(source, destination)])[
        (source, destination)
    ]


def shortest_path_routes(
    network: Network, pairs: Sequence[Pair]
) -> Dict[Pair, List[Hashable]]:
    """Shortest-path routes for many pairs (one BFS per distinct source)."""
    by_source: Dict[Hashable, Dict[Hashable, List[Hashable]]] = {}
    routes: Dict[Pair, List[Hashable]] = {}
    for src, dst in pairs:
        if src not in by_source:
            if src not in network:
                raise NoRouteError(src, dst)
            by_source[src] = network.shortest_paths_from(src)
        try:
            routes[(src, dst)] = by_source[src][dst]
        except KeyError:
            raise NoRouteError(src, dst) from None
    return routes


def route_lengths(routes: Dict[Pair, Sequence[Hashable]]) -> Dict[Pair, int]:
    """Hop count of every route."""
    return {pair: len(path) - 1 for pair, path in routes.items()}
