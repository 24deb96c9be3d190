"""Ready-made traffic classes and the paper's pair demand.

The paper's VoIP class, a video class for the multi-class scenarios, and
every ordered pair of edge routers; dynamic arrival/departure timelines
live in :mod:`repro.workload`.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from ..topology.network import Network
from ..units import kbps, mbps, milliseconds
from .classes import TrafficClass

__all__ = [
    "voice_class",
    "video_class",
    "all_ordered_pairs",
]


def voice_class(priority: int = 1) -> TrafficClass:
    """The paper's VoIP class: T = 640 bits, rho = 32 kbps, D = 100 ms."""
    return TrafficClass(
        name="voice",
        burst=640.0,
        rate=kbps(32),
        deadline=milliseconds(100),
        priority=priority,
    )


def video_class(priority: int = 2) -> TrafficClass:
    """A streaming-video-like class: 8 kb burst at 1 Mbps, 200 ms deadline."""
    return TrafficClass(
        name="video",
        burst=8_000.0,
        rate=mbps(1),
        deadline=milliseconds(200),
        priority=priority,
    )


def all_ordered_pairs(
    network: Network,
) -> List[Tuple[Hashable, Hashable]]:
    """Every ordered pair of distinct edge routers.

    This is the paper's Table 1 demand: "flows can be established between
    any two routers".
    """
    edges = network.edge_routers()
    return [(u, v) for u in edges for v in edges if u != v]

