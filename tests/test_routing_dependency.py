"""Server dependency graph and cycle queries."""

import networkx as nx

from repro.routing import ServerDependencyGraph


def test_empty_is_acyclic():
    deps = ServerDependencyGraph()
    assert nx.is_directed_acyclic_graph(deps._graph)
    assert deps._graph.number_of_edges() == 0


def test_add_route_edges():
    deps = ServerDependencyGraph()
    deps.add_route([0, 1, 2])
    assert sorted(deps._graph.edges) == [(0, 1), (1, 2)]


def test_single_server_route_adds_nothing():
    deps = ServerDependencyGraph()
    deps.add_route([5])
    assert deps._graph.number_of_edges() == 0


def test_creates_cycle_detection():
    deps = ServerDependencyGraph()
    deps.add_route([0, 1, 2])
    assert not deps.creates_cycle([3, 4])
    assert not deps.creates_cycle([0, 2])      # shortcut, no cycle
    assert deps.creates_cycle([2, 0])          # closes 0->1->2->0
    assert deps.creates_cycle([2, 3, 0])       # longer closure


def test_creates_cycle_self_contained():
    deps = ServerDependencyGraph()
    # The candidate itself contains a cycle among its own new edges.
    assert deps.creates_cycle([0, 1, 0])


def test_creates_cycle_does_not_mutate():
    deps = ServerDependencyGraph()
    deps.add_route([0, 1])
    deps.creates_cycle([1, 0])
    assert deps._graph.number_of_edges() == 1  # probe left no residue
    assert nx.is_directed_acyclic_graph(deps._graph)


def test_reusing_edges_never_creates_cycle():
    deps = ServerDependencyGraph()
    deps.add_route([0, 1, 2])
    assert not deps.creates_cycle([0, 1])  # pure reuse


def test_acyclic_with_predicate():
    # Section 5.2's preference: "whenever possible, each of them forms a
    # noncyclic graph with existing routes".
    deps = ServerDependencyGraph()
    deps.add_route([0, 1])
    assert not deps.creates_cycle([1, 2])
    assert deps.creates_cycle([1, 0])


def test_cycle_after_commit():
    deps = ServerDependencyGraph()
    deps.add_route([0, 1])
    deps.add_route([1, 0])
    assert not nx.is_directed_acyclic_graph(deps._graph)
    assert sorted(next(nx.simple_cycles(deps._graph))) == [0, 1]
