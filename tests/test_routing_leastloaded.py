"""Least-loaded routing baseline."""

import numpy as np
import pytest

from repro.analysis import RouteSystem
from repro.errors import RoutingError
from repro.routing import leastloaded, least_loaded_routes, shortest_path_routes
from repro.topology import LinkServerGraph, star_network


def test_all_pairs_routed(mci, mci_pairs):
    routes = least_loaded_routes(mci, mci_pairs)
    assert set(routes) == set(mci_pairs)
    for (src, dst), path in routes.items():
        assert path[0] == src and path[-1] == dst
        for a, b in zip(path, path[1:]):
            assert mci.has_link(a, b)


def test_deterministic(mci, mci_pairs):
    a = least_loaded_routes(mci, mci_pairs)
    b = least_loaded_routes(mci, mci_pairs)
    assert a == b


def test_duplicate_pairs_rejected(mci):
    with pytest.raises(RoutingError):
        least_loaded_routes(mci, [("Seattle", "Miami")] * 2)


def test_balances_better_than_shortest_path(mci, mci_graph, mci_pairs):
    """The defining property: a lower maximum per-server route count."""
    sp = shortest_path_routes(mci, mci_pairs)
    ll = least_loaded_routes(mci, mci_pairs)

    def max_occupancy(route_map):
        system = RouteSystem(
            mci_graph.routes_servers(list(route_map.values())),
            mci_graph.num_servers,
        )
        return int(system._server_count.max())

    assert max_occupancy(ll) <= max_occupancy(sp)


def test_spreads_parallel_demand(monkeypatch):
    """Two demands sharing the same relay stage spread over relays.

    Shortest-path routing pins both a->t and b->t through the same relay
    (deterministic tie-break); least-loaded routing must split them.
    """
    from repro.topology import Network

    net = Network("parallel")
    for n in ("a", "b", "s", "t", "m1", "m2"):
        net.add_router(n)
    net.add_link("a", "s")
    net.add_link("b", "s")
    for m in ("m1", "m2"):
        net.add_link("s", m)
        net.add_link(m, "t")
    pairs = [("a", "t"), ("b", "t")]
    sp = shortest_path_routes(net, pairs)
    assert sp[pairs[0]][2] == sp[pairs[1]][2]  # SP piles on one relay
    monkeypatch.setattr(leastloaded, "K_CANDIDATES", 6)
    routes = least_loaded_routes(net, pairs)
    relays = {routes[p][2] for p in pairs}
    assert relays == {"m1", "m2"}


def test_respects_detour_slack(mci, mci_pairs, monkeypatch):
    monkeypatch.setattr(leastloaded, "DETOUR_SLACK", 1)
    sp = shortest_path_routes(mci, mci_pairs)
    ll = least_loaded_routes(mci, mci_pairs)
    for pair in mci_pairs:
        assert len(ll[pair]) - 1 <= (len(sp[pair]) - 1) + 1
