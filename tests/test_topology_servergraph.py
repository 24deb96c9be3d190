"""Link-server expansion."""

import numpy as np
import pytest

from repro.errors import TopologyError, UnknownLinkError
from repro.topology import LinkServerGraph, Network, line_network, star_network


def test_index_roundtrip(line4_graph):
    for i in range(line4_graph.num_servers):
        tail, head = line4_graph._keys[i]
        assert line4_graph.server_index(tail, head) == i


def test_server_count_two_per_link(line4_graph):
    assert line4_graph.num_servers == 6  # 3 physical links
    assert len(line4_graph) == 6


def test_unknown_link(line4_graph):
    with pytest.raises(UnknownLinkError):
        line4_graph.server_index("r0", "r2")


def test_empty_network_rejected():
    with pytest.raises(TopologyError):
        LinkServerGraph(Network())


def test_capacities_follow_links():
    net = Network()
    for n in "ab":
        net.add_router(n)
    net.add_link("a", "b", capacity=42e6)
    g = LinkServerGraph(net)
    assert g.capacities[g.server_index("a", "b")] == 42e6
    assert g.capacities[g.server_index("b", "a")] == 42e6


def test_uniform_capacity_raises_on_heterogeneous():
    net = Network()
    for n in "abc":
        net.add_router(n)
    net.add_link("a", "b", capacity=1e6)
    net.add_link("b", "c", capacity=2e6)
    g = LinkServerGraph(net)
    with pytest.raises(TopologyError):
        g.uniform_capacity()


def test_fan_in_is_tail_degree():
    g = LinkServerGraph(star_network(4))
    hub_out = g.server_index("hub", "leaf0")
    leaf_out = g.server_index("leaf0", "hub")
    assert g.fan_in[hub_out] == 4   # hub has 4 input links
    assert g.fan_in[leaf_out] == 1  # a leaf has only the hub link


def test_uniform_fan_in_is_max(mci_graph):
    assert mci_graph.uniform_fan_in() == 6


def test_route_translation(line4_graph):
    servers = line4_graph.route_servers(["r0", "r1", "r2", "r3"])
    assert servers.shape == (3,)
    assert line4_graph._keys[int(servers[0])] == ("r0", "r1")
    assert line4_graph._keys[int(servers[-1])] == ("r2", "r3")


def test_route_translation_single_node(line4_graph):
    assert line4_graph.route_servers(["r0"]).size == 0


def test_route_translation_invalid_hop(line4_graph):
    with pytest.raises(UnknownLinkError):
        line4_graph.route_servers(["r0", "r2"])


def test_routes_servers_batch(line4_graph):
    routes = line4_graph.routes_servers([["r0", "r1"], ["r1", "r2", "r3"]])
    assert [r.size for r in routes] == [1, 2]


def test_servers_to_route_inverse(line4_graph):
    path = ["r0", "r1", "r2", "r3"]
    servers = line4_graph.route_servers(path)
    assert line4_graph.servers_to_route(servers) == path


def test_servers_to_route_rejects_broken_chain(line4_graph):
    a = line4_graph.server_index("r0", "r1")
    b = line4_graph.server_index("r2", "r3")  # does not chain after r0->r1
    with pytest.raises(TopologyError):
        line4_graph.servers_to_route([a, b])


def test_servers_to_route_rejects_empty(line4_graph):
    with pytest.raises(TopologyError):
        line4_graph.servers_to_route([])


def test_snapshot_semantics(line4):
    g = LinkServerGraph(line4)
    before = g.num_servers
    line4.add_router("extra")
    line4.add_link("r3", "extra")
    assert g.num_servers == before  # expansion is a snapshot
