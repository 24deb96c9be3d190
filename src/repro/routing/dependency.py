"""Server dependency graph and cycle accounting.

The Section 5.2 heuristic prefers candidate routes that keep the set of
routes "noncyclic": a route induces directed dependency edges between
consecutive link servers, and a cycle in the union of those edges means
the delay fixed point has feedback ("the feedback in the queuing of
packets is reduced, and so is the delay" — Section 5.2, heuristic (2)).

:class:`ServerDependencyGraph` maintains the union as routes are
committed and answers "would adding this route create a cycle?" queries.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import networkx as nx

__all__ = ["ServerDependencyGraph"]

Edge = Tuple[int, int]


def _route_edges(servers: Sequence[int]) -> List[Edge]:
    return [
        (int(servers[i]), int(servers[i + 1]))
        for i in range(len(servers) - 1)
    ]


class ServerDependencyGraph:
    """Directed dependency graph over link-server indices with multiplicity."""

    def __init__(self):
        self._graph = nx.DiGraph()

    def add_route(self, servers: Sequence[int]) -> None:
        """Register a route's dependency edges."""
        self._graph.add_edges_from(_route_edges(servers))

    def creates_cycle(self, servers: Sequence[int]) -> bool:
        """Would adding this route introduce a new directed cycle?

        A new edge ``(a, b)`` closes a cycle iff ``a`` is reachable from
        ``b`` in the graph extended with the route's new edges.  Correct
        whether or not the existing union already contains cycles.
        """
        new_edges = [
            e for e in _route_edges(servers) if not self._graph.has_edge(*e)
        ]
        if not new_edges:
            # Reusing existing edges cannot introduce a new cycle.
            return False
        self._graph.add_edges_from(new_edges)
        try:
            # A cycle through a new edge (a, b) exists iff b reaches a.
            return any(
                nx.has_path(self._graph, b, a) for a, b in new_edges
            )
        finally:
            self._graph.remove_edges_from(new_edges)
