"""`Network`'s own breadth-first search against networkx, the reference.

The serve path no longer loads networkx: `Network` keeps its adjacency
and answers shortest paths, connectivity, diameter and degree itself.
Which of several equal-length paths wins decides which links a flow
loads, hence what gets admitted — so these tests hold the search to
networkx's answers *including dictionary order*, on every builder and on
random edge lists, and pin the served topologies' routes outright.
"""

import hashlib
import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError, UnknownNodeError
from repro.routing.shortest import shortest_path_routes
from repro.topology import builders
from repro.topology.network import Network
from repro.topology.router import DirectedLink
from repro.traffic.generators import all_ordered_pairs

BUILT = {
    "mci": builders.mci_backbone,
    "nsfnet": builders.nsfnet_backbone,
    "line": lambda: builders.line_network(6),
    "ring": lambda: builders.ring_network(7),
    "star": lambda: builders.star_network(5),
    "mesh": lambda: builders.full_mesh(5),
    "grid": lambda: builders.grid_network(3, 4),
    "tree": lambda: builders.tree_network(2, 3),
    "dumbbell": lambda: builders.dumbbell_network(3, 4),
    "fat_tree": lambda: builders.fat_tree_network(4),
    **{
        f"waxman-{seed}": lambda seed=seed: builders.waxman_network(12, seed)
        for seed in range(5)
    },
    **{
        f"gnp-{seed}": lambda seed=seed: builders.random_network(12, 0.3, seed)
        for seed in range(5)
    },
}


def directed(graph):
    """Both link servers of every edge, in networkx's edge order."""
    return [
        link
        for u, v, data in graph.edges(data=True)
        for link in (
            DirectedLink(u, v, data["capacity"]),
            DirectedLink(v, u, data["capacity"]),
        )
    ]


def neighbour_order(graph):
    return {n: list(nbrs.items()) for n, nbrs in graph.adj.items()}


def assert_matches_networkx(network, ref):
    """Every question `Network` answers itself, against ``ref``."""
    for source in network.routers():
        mine = network.shortest_paths_from(source)
        theirs = nx.single_source_shortest_path(ref, source)
        assert mine == theirs
        assert list(mine) == list(theirs)  # discovery order too
        assert network.neighbors(source) == list(ref.neighbors(source))
        assert network.degree(source) == ref.degree[source]
    assert network.max_degree() == max(d for _, d in ref.degree)
    assert network.num_physical_links == ref.number_of_edges()
    assert network.is_connected() == nx.is_connected(ref)
    if network.is_connected():
        assert network.diameter() == nx.diameter(ref)
    else:
        with pytest.raises(TopologyError):
            network.diameter()
    assert list(network.directed_links()) == directed(ref)


def assert_without_link_matches(network, ref):
    """`without_link` rebuilds in edge order, as it did over networkx."""
    for u, v in list(ref.edges())[:6]:
        expected = nx.Graph()
        expected.add_nodes_from(ref)
        for a, b, data in ref.edges(data=True):
            if {a, b} != {u, v}:
                expected.add_edge(a, b, **data)
        if not nx.is_connected(expected):
            with pytest.raises(TopologyError):
                network.without_link(u, v)
            continue
        smaller = network.without_link(v, u)  # either orientation
        assert neighbour_order(smaller.graph) == neighbour_order(expected)
        assert list(smaller.directed_links()) == directed(expected)


@pytest.mark.parametrize("name", sorted(BUILT))
def test_builders_agree_with_networkx(name):
    network = BUILT[name]()
    assert_matches_networkx(network, network.graph)
    assert_without_link_matches(network, network.graph)


@st.composite
def edge_lists(draw):
    """Routers and links in shuffled insertion order; connected or not."""
    n = draw(st.integers(min_value=1, max_value=8))
    nodes = draw(st.permutations(range(n)))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(possible), unique=True) if possible
        else st.just([])
    )
    edges = [
        (pair[::-1] if flip else pair, capacity)
        for pair, flip, capacity in zip(
            draw(st.permutations(chosen)),
            draw(st.lists(st.booleans(), min_size=len(chosen),
                          max_size=len(chosen))),
            draw(st.lists(st.sampled_from([1e6, 5e6, 1e8]),
                          min_size=len(chosen), max_size=len(chosen))),
        )
    ]
    return list(nodes), edges


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_random_edge_lists_agree_with_networkx(case):
    nodes, edges = case
    network = Network("random")
    ref = nx.Graph()  # built call for call as Network used to build its own
    for node in nodes:
        network.add_router(node)
        ref.add_node(node)
    for (u, v), capacity in edges:
        network.add_link(u, v, capacity)
        ref.add_edge(u, v, capacity=capacity)
    # The derived view is that graph: same routers, same neighbour order.
    assert list(network.graph.nodes) == list(ref.nodes)
    assert neighbour_order(network.graph) == neighbour_order(ref)
    assert_matches_networkx(network, ref)
    assert_without_link_matches(network, ref)


def test_shortest_paths_from_unknown_router():
    with pytest.raises(UnknownNodeError):
        builders.line_network(3).shortest_paths_from("nowhere")


@pytest.mark.parametrize(
    "build, count, digest",
    [
        (
            builders.mci_backbone,
            306,
            "46abeabc48363ab3ebc2cdb755149aded6bc7ee0adaacc009aadf8d47fc3efbe",
        ),
        (
            builders.nsfnet_backbone,
            182,
            "8904c767dbd0c22e5f2831dc8437c769160f80ac0d3ef3d95b624391f6148676",
        ),
    ],
)
def test_served_routes_are_pinned(build, count, digest):
    """Every route the server certifies and admits on, as networkx chose
    them before `Network` searched for itself: a drift here moves
    `admitted_share`."""
    network = build()
    routes = shortest_path_routes(network, all_ordered_pairs(network))
    assert len(routes) == count
    blob = json.dumps(
        [[list(pair), path] for pair, path in routes.items()],
        separators=(",", ":"),
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
