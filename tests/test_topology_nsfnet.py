"""The NSFNET extension topology."""

import networkx as nx
import pytest

from repro.topology import builders
from repro.topology import (
    NSFNET_EDGES,
    NSFNET_ROUTERS,
    analyze,
    nsfnet_backbone,
)


@pytest.fixture(scope="module")
def nsfnet():
    return nsfnet_backbone()


def test_size(nsfnet):
    assert nsfnet.num_routers == 14
    assert nsfnet.num_physical_links == 22


def test_connected_and_properties(nsfnet):
    report = analyze(nsfnet)
    assert report.diameter == 3     # the L used in extension experiments
    assert report.max_degree == 4   # the N used in extension experiments
    assert report.capacity == 100e6


def test_all_edge_routers(nsfnet):
    assert sorted(nsfnet.edge_routers()) == sorted(nsfnet.routers())


def test_names_unique():
    assert len(set(NSFNET_ROUTERS)) == len(NSFNET_ROUTERS)


def test_edges_reference_known_routers():
    for u, v in NSFNET_EDGES:
        assert u in NSFNET_ROUTERS and v in NSFNET_ROUTERS


def test_custom_capacity(monkeypatch):
    monkeypatch.setattr(builders, "DEFAULT_CAPACITY", 45e6)  # the T3 upgrade
    net = nsfnet_backbone()
    assert net.capacity("Seattle", "PaloAlto") == 45e6


def test_usable_by_the_analysis(nsfnet):
    """The whole pipeline runs on NSFNET (cross-topology sanity)."""
    from repro.config import configure
    from repro.traffic import ClassRegistry, voice_class

    registry = ClassRegistry.two_class(voice_class())
    cfg = configure(
        nsfnet, registry, {"voice": 0.35}, routing="shortest-path"
    )
    assert cfg.verification.success
    assert len(cfg.routes) == 14 * 13
