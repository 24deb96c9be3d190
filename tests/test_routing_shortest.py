"""Shortest-path routing baseline."""

import networkx as nx
import pytest

from repro.errors import NoRouteError
from repro.routing import shortest_path_routes
from repro.topology import Network


def test_single_route(mci):
    path = shortest_path_routes(mci, [("Seattle", "Miami")])[("Seattle", "Miami")]
    assert path[0] == "Seattle" and path[-1] == "Miami"
    assert len(path) - 1 == nx.shortest_path_length(
        mci.graph, "Seattle", "Miami"
    )


def test_routes_are_shortest(mci, mci_pairs):
    routes = shortest_path_routes(mci, mci_pairs)
    lengths = dict(nx.all_pairs_shortest_path_length(mci.graph))
    for (u, v), path in routes.items():
        assert len(path) - 1 == lengths[u][v]


def test_all_pairs_covered(mci, mci_pairs):
    routes = shortest_path_routes(mci, mci_pairs)
    assert set(routes) == set(mci_pairs)


def test_deterministic(mci, mci_pairs):
    a = shortest_path_routes(mci, mci_pairs)
    b = shortest_path_routes(mci, mci_pairs)
    assert a == b


def test_routes_within_diameter(mci, mci_pairs):
    routes = shortest_path_routes(mci, mci_pairs)
    assert max(len(r) - 1 for r in routes.values()) == 4  # = L


def test_no_route_raises():
    net = Network()
    net.add_router("u")
    net.add_router("v")
    with pytest.raises(NoRouteError):
        shortest_path_routes(net, [("u", "v")])


def test_unknown_source_raises(mci):
    with pytest.raises(NoRouteError):
        shortest_path_routes(mci, [("Atlantis", "Miami")])
