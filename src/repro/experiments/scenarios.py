"""The paper's evaluation scenario (Section 6) as reusable objects.

One place holds every constant of the Table 1 experiment so the examples,
tests and benchmarks cannot drift apart:

* topology — the reconstructed MCI backbone, 100 Mbps links;
* traffic — the VoIP class: ``T = 640`` bits, ``rho = 32`` kbps,
  ``D = 100`` ms, highest priority, plus a best-effort class;
* demand — one flow route per ordered pair of routers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Tuple

from ..topology.builders import mci_backbone
from ..topology.network import Network
from ..topology.properties import TopologyReport, analyze
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry, TrafficClass
from ..traffic.generators import all_ordered_pairs, voice_class

__all__ = ["PaperScenario", "paper_scenario"]

Pair = Tuple[Hashable, Hashable]


@dataclass
class PaperScenario:
    """Bundled evaluation setup of the paper."""

    network: Network
    graph: LinkServerGraph
    report: TopologyReport
    voice: TrafficClass
    registry: ClassRegistry
    pairs: List[Pair]

    @property
    def fan_in(self) -> int:
        """The paper's ``N`` (6 for the MCI backbone)."""
        return self.report.max_degree

    @property
    def diameter(self) -> int:
        """The paper's ``L`` (4 for the MCI backbone)."""
        return self.report.diameter

    @property
    def capacity(self) -> float:
        """Link capacity ``C`` (100 Mbps)."""
        return self.report.capacity


def paper_scenario() -> PaperScenario:
    """Build the Section 6 evaluation setup (100 Mbps links)."""
    network = mci_backbone()
    graph = LinkServerGraph(network)
    voice = voice_class()
    return PaperScenario(
        network=network,
        graph=graph,
        report=analyze(network),
        voice=voice,
        registry=ClassRegistry.two_class(voice),
        pairs=all_ordered_pairs(network),
    )
