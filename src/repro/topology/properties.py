"""Topology property report.

Collects the quantities the paper's analysis consumes (``L``, ``N``, ``C``)
plus general statistics useful when comparing topologies in the extension
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TopologyError
from .network import Network

__all__ = ["TopologyReport", "analyze"]


@dataclass(frozen=True)
class TopologyReport:
    """Summary of the analysis-relevant properties of a network.

    Attributes
    ----------
    diameter:
        Hop-count diameter — the paper's ``L``.
    max_degree:
        Maximum router degree — the paper's ``N``.
    """

    name: str
    num_routers: int
    num_physical_links: int
    num_link_servers: int
    diameter: int
    max_degree: int
    min_degree: int
    mean_degree: float
    radius: int
    average_shortest_path: float
    is_uniform_capacity: bool
    capacity: float


def analyze(network: Network) -> TopologyReport:
    """Compute a :class:`TopologyReport` for a connected network."""
    if not network.is_connected():
        raise TopologyError("topology report requires a connected network")
    routers = network.routers()
    degrees = [network.degree(r) for r in routers]
    caps = {link.capacity for link in network.directed_links()}
    uniform = len(caps) == 1
    hops = [
        [len(path) - 1 for path in network.shortest_paths_from(r).values()]
        for r in routers
    ]
    eccentricity = [max(h) for h in hops]
    pairs = len(routers) * (len(routers) - 1)
    return TopologyReport(
        name=network.name,
        num_routers=network.num_routers,
        num_physical_links=network.num_physical_links,
        num_link_servers=network.num_link_servers,
        diameter=max(eccentricity),
        max_degree=max(degrees),
        min_degree=min(degrees),
        mean_degree=sum(degrees) / len(degrees),
        radius=min(eccentricity),
        average_shortest_path=sum(map(sum, hops)) / pairs if pairs else 0.0,
        is_uniform_capacity=uniform,
        capacity=caps.pop() if uniform else float("nan"),
    )
