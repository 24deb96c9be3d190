"""Topology reports and derived properties."""

import math

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topology import (
    Network,
    analyze,
    line_network,
    mci_backbone,
    nsfnet_backbone,
    random_network,
)

REFERENCE = {
    "mci": mci_backbone,
    "nsfnet": nsfnet_backbone,
    **{
        f"gnp-{n}-{seed}": lambda n=n, seed=seed: random_network(n, 0.3, seed)
        for n in (2, 9, 16)
        for seed in range(4)
    },
}


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_report_equals_networkx(name):
    """Network's own searches give networkx's figures, to the last bit."""
    network = REFERENCE[name]()
    g = network.graph
    report = analyze(network)
    assert report.diameter == nx.diameter(g)
    assert report.radius == nx.radius(g)
    assert report.average_shortest_path == nx.average_shortest_path_length(g)
    degrees = [d for _, d in g.degree]
    assert (report.max_degree, report.min_degree, report.mean_degree) == (
        max(degrees), min(degrees), sum(degrees) / len(degrees),
    )


def test_report_mci(mci):
    report = analyze(mci)
    assert report.diameter == 4
    assert report.max_degree == 6
    assert report.num_routers == 18
    assert report.num_link_servers == 2 * report.num_physical_links
    assert report.is_uniform_capacity
    assert report.capacity == 100e6
    assert report.min_degree >= 2
    assert 2.0 < report.average_shortest_path < 4.0
    assert report.radius <= report.diameter


def test_report_heterogeneous_capacity():
    net = Network()
    for n in "abc":
        net.add_router(n)
    net.add_link("a", "b", 1e6)
    net.add_link("b", "c", 2e6)
    report = analyze(net)
    assert not report.is_uniform_capacity
    assert math.isnan(report.capacity)


def test_report_requires_connected():
    net = Network()
    net.add_router("u")
    net.add_router("v")
    with pytest.raises(TopologyError):
        analyze(net)
