"""Least-loaded routing — a load-aware but delay-blind baseline.

Between plain shortest-path and the paper's delay-driven heuristic sits
the classic traffic-engineering strategy: spread routes so that no link
carries disproportionately many of them.  It balances *load* but knows
nothing about worst-case *delay* (feedback cycles, jitter inflation), so
comparing all three isolates what the Section 5.2 heuristic's
delay-awareness actually buys (ablation Ext-C's counterpart on the
routing-strategy axis).

The algorithm routes pairs in the given (or distance-descending) order;
for each pair it picks, among the k-shortest candidates, the route
minimizing the maximum occupancy (number of routes already using any of
its servers), breaking ties by total occupancy and then by length.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..topology.network import Network
from ..topology.servergraph import LinkServerGraph
from .candidates import CandidateGenerator
from .heuristic import check_pairs, farthest_first

__all__ = ["least_loaded_routes"]

Pair = Tuple[Hashable, Hashable]


def least_loaded_routes(
    network: Network,
    pairs: Sequence[Pair],
    *,
    k_candidates: int = 8,
    detour_slack: int = 2,
    order_by_distance: bool = True,
    graph: Optional[LinkServerGraph] = None,
) -> Dict[Pair, List[Hashable]]:
    """Route every pair minimizing the maximum per-server route count."""
    check_pairs(pairs)
    g = graph if graph is not None else LinkServerGraph(network)
    candidates = CandidateGenerator(
        network, k=k_candidates, detour_slack=detour_slack
    )
    occupancy = np.zeros(g.num_servers, dtype=np.int64)
    ordered = (
        farthest_first(network, pairs, {}) if order_by_distance
        else list(pairs)
    )

    routes: Dict[Pair, List[Hashable]] = {}
    for pair in ordered:
        best = None
        for cand in candidates(*pair):
            servers = g.route_servers(cand)
            key = (
                int(occupancy[servers].max()),
                int(occupancy[servers].sum()),
                len(cand),
            )
            if best is None or key < best[0]:
                best = (key, cand, servers)
        _, chosen, servers = best
        occupancy[servers] += 1
        routes[pair] = list(chosen)
    return routes
