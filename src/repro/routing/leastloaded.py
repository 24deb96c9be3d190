"""Least-loaded routing — a load-aware but delay-blind baseline.

Between plain shortest-path and the paper's delay-driven heuristic sits
the classic traffic-engineering strategy: spread routes so that no link
carries disproportionately many of them.  It balances *load* but knows
nothing about worst-case *delay* (feedback cycles, jitter inflation), so
comparing all three isolates what the Section 5.2 heuristic's
delay-awareness actually buys (ablation Ext-C's counterpart on the
routing-strategy axis).

The algorithm routes pairs farthest first; for each pair it picks,
among the heuristic's k-shortest candidates, the route
minimizing the maximum occupancy (number of routes already using any of
its servers), breaking ties by total occupancy and then by length.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from ..topology.network import Network
from ..topology.servergraph import LinkServerGraph
from .candidates import CandidateGenerator
from .heuristic import DETOUR_SLACK, K_CANDIDATES, check_pairs, farthest_first

__all__ = ["least_loaded_routes"]

Pair = Tuple[Hashable, Hashable]


def least_loaded_routes(
    network: Network,
    pairs: Sequence[Pair],
) -> Dict[Pair, List[Hashable]]:
    """Route every pair minimizing the maximum per-server route count."""
    check_pairs(pairs)
    g = LinkServerGraph(network)
    candidates = CandidateGenerator(
        network, k=K_CANDIDATES, detour_slack=DETOUR_SLACK
    )
    occupancy = np.zeros(g.num_servers, dtype=np.int64)

    routes: Dict[Pair, List[Hashable]] = {}
    for pair in farthest_first(network, pairs, {}):
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
