"""Built-in topologies, including the paper's Figure 4 reconstruction."""

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topology import builders
from repro.topology import (
    MCI_EDGES,
    MCI_ROUTERS,
    dumbbell_network,
    full_mesh,
    grid_network,
    line_network,
    mci_backbone,
    random_network,
    ring_network,
    star_network,
    tree_network,
)


class TestMCIBackbone:
    """Figure 4 properties the paper states and the analysis consumes."""

    def test_router_count(self, mci):
        assert mci.num_routers == 18

    def test_diameter_is_four(self, mci):
        assert mci.diameter() == 4  # the paper's L

    def test_max_degree_is_six(self, mci):
        assert mci.max_degree() == 6  # the paper's N

    def test_connected(self, mci):
        assert mci.is_connected()

    def test_default_capacity_100mbps(self, mci):
        for link in mci.directed_links():
            assert link.capacity == 100e6

    def test_all_routers_are_edge_routers(self, mci):
        # "all routers can act as edge routers" (Section 6)
        assert sorted(mci.edge_routers()) == sorted(mci.routers())

    def test_edge_list_matches_constant(self, mci):
        assert mci.num_physical_links == len(MCI_EDGES)
        for u, v in MCI_EDGES:
            assert mci.has_link(u, v)

    def test_router_names_unique(self):
        assert len(set(MCI_ROUTERS)) == len(MCI_ROUTERS)

    def test_custom_capacity(self, monkeypatch):
        monkeypatch.setattr(builders, "DEFAULT_CAPACITY", 1e9)
        net = mci_backbone()
        assert net.capacity("Seattle", "Denver") == 1e9

    def test_some_pair_at_diameter(self, mci):
        lengths = dict(nx.all_pairs_shortest_path_length(mci.graph))
        assert lengths["Boston"]["Phoenix"] == 4


class TestSyntheticBuilders:
    def test_line(self):
        net = line_network(5)
        assert net.num_routers == 5
        assert net.diameter() == 4

    def test_line_too_small(self):
        with pytest.raises(TopologyError):
            line_network(1)

    def test_ring(self):
        net = ring_network(6)
        assert net.num_physical_links == 6
        assert net.diameter() == 3

    def test_ring_too_small(self):
        with pytest.raises(TopologyError):
            ring_network(2)

    def test_star(self):
        net = star_network(5)
        assert net.max_degree() == 5
        assert net.diameter() == 2

    def test_full_mesh(self):
        net = full_mesh(4)
        assert net.num_physical_links == 6
        assert net.diameter() == 1

    def test_grid(self):
        net = grid_network(3, 4)
        assert net.num_routers == 12
        assert net.diameter() == 5  # (3-1) + (4-1)

    def test_grid_invalid(self):
        with pytest.raises(TopologyError):
            grid_network(1, 1)

    def test_tree(self):
        net = tree_network(2, 3)
        assert net.num_routers == 15
        assert net.diameter() == 6

    def test_dumbbell_bottleneck(self):
        net = dumbbell_network(3, 2, bottleneck_capacity=10e6)
        assert net.capacity("hubL", "hubR") == 10e6
        assert net.capacity("L0", "hubL") == 100e6
        # only leaves are edge routers
        assert "hubL" not in net.edge_routers()
        assert len(net.edge_routers()) == 5

    def test_random_connected_and_deterministic(self):
        a = random_network(12, 0.3, seed=7)
        b = random_network(12, 0.3, seed=7)
        assert a.is_connected()
        assert set(l.key for l in a.directed_links()) == set(
            l.key for l in b.directed_links()
        )

    def test_random_different_seed_differs(self):
        a = random_network(12, 0.3, seed=7)
        b = random_network(12, 0.3, seed=8)
        assert set(l.key for l in a.directed_links()) != set(
            l.key for l in b.directed_links()
        )

    def test_random_validation(self):
        with pytest.raises(TopologyError):
            random_network(1, 0.5, seed=0)
        with pytest.raises(TopologyError):
            random_network(5, 0.0, seed=0)
