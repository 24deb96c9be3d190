"""Server dependency graph and cycle accounting.

The Section 5.2 heuristic prefers candidate routes that keep the set of
routes "noncyclic": a route induces directed dependency edges between
consecutive link servers, and a cycle in the union of those edges means
the delay fixed point has feedback ("the feedback in the queuing of
packets is reduced, and so is the delay" — Section 5.2, heuristic (2)).

:class:`ServerDependencyGraph` maintains the union as routes are
committed and answers "would adding this route create a cycle?" queries.
Its edges are :func:`repro.analysis.theorem3.dependency_order`'s: one
from each server to the next one on any route.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

__all__ = ["ServerDependencyGraph"]


class ServerDependencyGraph:
    """Directed dependency graph over link-server indices, as successor
    sets."""

    def __init__(self):
        self._succ: Dict[int, Set[int]] = {}

    def add_route(self, servers: Sequence[int]) -> None:
        """Register a route's dependency edges."""
        for a, b in zip(servers, servers[1:]):
            self._succ.setdefault(int(a), set()).add(int(b))

    def creates_cycle(self, servers: Sequence[int]) -> bool:
        """Would adding this route introduce a new directed cycle?

        With the route's new edges ``(a_i, b_i)`` numbered in route
        order, a cycle runs through one of them iff some head ``b_j``
        reaches a tail ``a_i``, ``i <= j``, over the committed edges: the
        route walks from ``a_i`` to ``b_j``, and a way back that takes a
        new edge can be cut at the last one it takes.  So one search,
        from the latest head first, visits each server once.  Correct
        whether or not the committed union already has cycles.
        """
        succ = self._succ
        new = [
            (int(a), int(b)) for a, b in zip(servers, servers[1:])
            if b not in succ.get(a, ())
        ]
        first_tail: Dict[int, int] = {}  # the first new edge a tail leaves by
        for i, (a, _) in enumerate(new):
            first_tail.setdefault(a, i)
        reached: Set[int] = set()
        for j in range(len(new) - 1, -1, -1):
            stack = [new[j][1]]
            while stack:
                v = stack.pop()
                if v in reached:
                    continue
                if first_tail.get(v, j + 1) <= j:
                    return True
                reached.add(v)
                stack.extend(succ.get(v, ()))
        return False
