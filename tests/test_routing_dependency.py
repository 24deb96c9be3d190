"""Server dependency graph and cycle queries.

What a graph has committed is read back through its own query and
through `dependency_order`, the strongly connected components Figure 2
is solved over, applied to the committed routes.  networkx is the
reference `creates_cycle` is held to on random route sets over the MCI
and NSFNET link servers, and a planted mutant shows the checks can fail.
"""

import inspect

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.theorem3 import dependency_order
from repro.routing import ServerDependencyGraph
from repro.routing import dependency
from repro.topology import mci_backbone, nsfnet_backbone
from repro.topology.servergraph import LinkServerGraph


def committed(*routes):
    deps = ServerDependencyGraph()
    for route in routes:
        deps.add_route(route)
    return deps


def components(routes):
    return [sorted(c) for c in dependency_order(routes)]


def test_empty_is_acyclic():
    deps = committed()
    assert components([]) == []
    assert not deps.creates_cycle([0, 1])


def test_add_route_edges():
    deps = committed([0, 1, 2])
    assert components([[0, 1, 2]]) == [[0], [1], [2]]
    assert not deps.creates_cycle([0, 1, 2])  # both edges are committed
    assert deps.creates_cycle([1, 0])
    assert deps.creates_cycle([2, 1])


def test_single_server_route_adds_nothing():
    deps = committed([5])
    assert components([[5]]) == [[5]]
    assert not deps.creates_cycle([5])
    assert not deps.creates_cycle([6, 5])


def test_creates_cycle_detection():
    deps = committed([0, 1, 2])
    assert not deps.creates_cycle([3, 4])
    assert not deps.creates_cycle([0, 2])      # shortcut, no cycle
    assert deps.creates_cycle([2, 0])          # closes 0->1->2->0
    assert deps.creates_cycle([2, 3, 0])       # longer closure


def test_creates_cycle_self_contained():
    deps = ServerDependencyGraph()
    # The candidate itself contains a cycle among its own new edges.
    assert deps.creates_cycle([0, 1, 0])


def test_creates_cycle_does_not_mutate():
    deps = committed([0, 1])
    assert deps.creates_cycle([1, 0])
    # Had the probe kept 1->0, asking again would be pure reuse.
    assert deps.creates_cycle([1, 0])
    assert components([[0, 1]]) == [[0], [1]]


def test_reusing_edges_never_creates_cycle():
    deps = committed([0, 1, 2])
    assert not deps.creates_cycle([0, 1])  # pure reuse


def test_acyclic_with_predicate():
    # Section 5.2's preference: "whenever possible, each of them forms a
    # noncyclic graph with existing routes".
    deps = committed([0, 1])
    assert not deps.creates_cycle([1, 2])
    assert deps.creates_cycle([1, 0])


def test_cycle_after_commit():
    deps = committed([0, 1], [1, 0])
    assert components([[0, 1], [1, 0]]) == [[0, 1]]
    assert not deps.creates_cycle([1, 0])  # reuse closes nothing new
    assert deps.creates_cycle([0, 2, 0])


# ---------------------------------------------------------------------- #
# networkx, the reference
# ---------------------------------------------------------------------- #

NETWORKS = {
    build.__name__: build() for build in (mci_backbone, nsfnet_backbone)
}
GRAPHS = {name: LinkServerGraph(net) for name, net in NETWORKS.items()}


def reference_creates_cycle(routes, route):
    """Does some edge of ``route`` missing from ``routes`` lie on a
    cycle of the union?"""
    graph = nx.DiGraph()
    for r in routes:
        nx.add_path(graph, r)
    new = [e for e in zip(route, route[1:]) if not graph.has_edge(*e)]
    nx.add_path(graph, route)
    return any(nx.has_path(graph, b, a) for a, b in new)


@st.composite
def server_routes(draw, name):
    """A walk of 1-6 links from a random router, as link servers: walks
    may turn back, so their own edges can close a cycle."""
    network = NETWORKS[name]
    path = [draw(st.sampled_from(network.routers()))]
    for _ in range(draw(st.integers(1, 6))):
        path.append(draw(st.sampled_from(network.neighbors(path[-1]))))
    return list(GRAPHS[name].route_servers(path))


@pytest.mark.parametrize("name", sorted(NETWORKS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_creates_cycle_matches_networkx(name, data):
    routes = data.draw(st.lists(server_routes(name), max_size=12))
    candidate = data.draw(server_routes(name))
    deps = committed(*routes)
    assert deps.creates_cycle(candidate) == reference_creates_cycle(
        routes, candidate
    )


def test_a_search_pairing_each_head_with_its_own_tail_is_caught():
    """The committed edges alone are enough to search, but only because
    the route walks from each tail to every later head: a search that
    asks each new edge's head for its own tail alone, over the committed
    edges, misses a cycle the route's own edges close."""
    source = inspect.getsource(dependency)
    right = "if first_tail.get(v, j + 1) <= j:"
    assert source.count(right) == 1
    namespace = {}
    exec(compile(
        source.replace(right, "if first_tail.get(v) == j:"),
        dependency.__file__, "exec",
    ), namespace)
    mutant = namespace["ServerDependencyGraph"]()
    assert not mutant.creates_cycle([0, 1, 0])
    assert ServerDependencyGraph().creates_cycle([0, 1, 0])
