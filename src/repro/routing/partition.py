"""Partitioning route sets around failed topology elements.

Shared by the offline link-failure repair (:mod:`repro.config.repair`)
and the runtime chaos harness (:mod:`repro.faults.harness`): given a set
of routes and a failed link or router, split the routes into *survivors*
(untouched by the failure, their guarantees still hold verbatim) and
*casualties* (must be re-routed or shed).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "route_uses_link",
    "route_uses_router",
    "partition_by_link",
]

Pair = Tuple[Hashable, Hashable]
RouteMap = Mapping[Pair, Sequence[Hashable]]


def route_uses_link(
    path: Sequence[Hashable], link: Tuple[Hashable, Hashable]
) -> bool:
    """True iff the router-level path traverses the (undirected) link."""
    broken = frozenset(link)
    return any(frozenset((a, b)) == broken for a, b in zip(path, path[1:]))


def route_uses_router(path: Sequence[Hashable], router: Hashable) -> bool:
    """True iff the router-level path visits the router."""
    return router in path


def partition_by_link(
    routes: RouteMap, link: Tuple[Hashable, Hashable]
) -> Tuple[Dict[Pair, List[Hashable]], List[Pair]]:
    """Split ``routes`` into (survivors, casualty pairs) for a dead link."""
    survivors: Dict[Pair, List[Hashable]] = {}
    casualties: List[Pair] = []
    for pair, path in routes.items():
        if route_uses_link(path, link):
            casualties.append(pair)
        else:
            survivors[pair] = list(path)
    return survivors, casualties

