"""Network container semantics."""

import pytest

from repro.errors import TopologyError, UnknownLinkError, UnknownNodeError
from repro.topology import Network


@pytest.fixture()
def triangle():
    net = Network("triangle")
    for name in "abc":
        net.add_router(name)
    net.add_link("a", "b")
    net.add_link("b", "c", capacity=50e6)
    net.add_link("c", "a")
    return net


def test_counts(triangle):
    assert triangle.num_routers == 3
    assert triangle.num_physical_links == 3
    assert triangle.num_link_servers == 6
    assert len(triangle) == 3


def test_router_lookup(triangle):
    assert triangle.router("a").name == "a"
    with pytest.raises(UnknownNodeError):
        triangle.router("z")


def test_contains(triangle):
    assert "a" in triangle
    assert "z" not in triangle


def test_add_duplicate_router_is_noop(triangle):
    triangle.add_router("a")  # identical attributes: fine
    assert triangle.num_routers == 3


def test_add_conflicting_router_raises(triangle):
    with pytest.raises(TopologyError):
        triangle.add_router("a", is_edge=False)


def test_self_loop_rejected(triangle):
    with pytest.raises(TopologyError):
        triangle.add_link("a", "a")


def test_duplicate_link_rejected(triangle):
    with pytest.raises(TopologyError):
        triangle.add_link("a", "b")
    with pytest.raises(TopologyError):
        triangle.add_link("b", "a")  # same physical link, other direction


def test_nonpositive_capacity_rejected(triangle):
    net = Network()
    net.add_router("x")
    net.add_router("y")
    with pytest.raises(TopologyError):
        net.add_link("x", "y", capacity=0.0)


def test_link_to_unknown_router():
    net = Network()
    net.add_router("x")
    with pytest.raises(UnknownNodeError):
        net.add_link("x", "ghost")


def test_directed_links_both_directions(triangle):
    keys = {link.key for link in triangle.directed_links()}
    assert ("a", "b") in keys and ("b", "a") in keys
    assert len(keys) == 6


def test_link_capacity_per_direction(triangle):
    assert triangle.capacity("b", "c") == 50e6
    assert triangle.capacity("c", "b") == 50e6


def test_unknown_link_raises(triangle):
    with pytest.raises(UnknownLinkError):
        triangle.link("a", "z")


def test_neighbors_and_degree(triangle):
    assert sorted(triangle.neighbors("a")) == ["b", "c"]
    assert triangle.degree("a") == 2
    assert triangle.max_degree() == 2


def test_diameter_triangle(triangle):
    assert triangle.diameter() == 1


def test_diameter_requires_connected():
    net = Network()
    net.add_router("u")
    net.add_router("v")
    with pytest.raises(TopologyError):
        net.diameter()


def test_edge_routers_filter():
    net = Network()
    net.add_router("edge")
    net.add_router("core", is_edge=False)
    net.add_link("edge", "core")
    assert net.edge_routers() == ["edge"]


def test_from_edges_builder():
    net = Network.from_edges([("a", "b"), ("b", "c")], capacity=1e6)
    assert net.num_routers == 3
    assert net.capacity("a", "b") == 1e6


def test_graph_is_a_frozen_view_that_follows_the_network(triangle):
    import networkx as nx

    view = triangle.graph
    assert triangle.graph is view  # derived once, then cached
    for mutate in (
        lambda: view.remove_edge("a", "b"),
        lambda: view.add_edge("a", "z"),
        lambda: view.remove_node("c"),
    ):
        with pytest.raises(nx.NetworkXError):
            mutate()
    assert triangle.has_link("a", "b")
    assert "z" not in triangle and "c" in triangle
    # The view carries the capacities.
    assert view.edges["b", "c"]["capacity"] == 50e6
    # Editing the Network is seen by the next read of the view.
    triangle.add_router("d")
    assert "d" in triangle.graph and "d" not in view
    triangle.add_link("d", "a", capacity=5e6)
    assert triangle.graph.edges["a", "d"]["capacity"] == 5e6
