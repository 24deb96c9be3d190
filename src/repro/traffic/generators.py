"""Traffic classes, pairs and static demand.

Ready-made traffic classes (the paper's VoIP scenario plus common extras)
and deterministic, seedable generators of static flow demand; dynamic
arrival/departure timelines live in :mod:`repro.workload`.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

import numpy as np

from ..errors import TrafficError
from ..topology.network import Network
from ..units import kbps, mbps, milliseconds
from .classes import TrafficClass
from .flows import FlowSpec

__all__ = [
    "gravity_demand",
    "voice_class",
    "video_class",
    "data_class",
    "all_ordered_pairs",
    "random_pairs",
    "uniform_flow_demand",
]


def voice_class(
    name: str = "voice",
    deadline: float = milliseconds(100),
    priority: int = 1,
) -> TrafficClass:
    """The paper's VoIP class: T = 640 bits, rho = 32 kbps, D = 100 ms."""
    return TrafficClass(
        name=name,
        burst=640.0,
        rate=kbps(32),
        deadline=deadline,
        priority=priority,
    )


def video_class(
    name: str = "video",
    deadline: float = milliseconds(200),
    priority: int = 2,
) -> TrafficClass:
    """A streaming-video-like class: 8 kb burst at 1 Mbps, 200 ms deadline."""
    return TrafficClass(
        name=name,
        burst=8_000.0,
        rate=mbps(1),
        deadline=deadline,
        priority=priority,
    )


def data_class(
    name: str = "data",
    deadline: float = milliseconds(500),
    priority: int = 3,
) -> TrafficClass:
    """A bulk-transfer class with a loose deadline: 12 kb burst at 2 Mbps."""
    return TrafficClass(
        name=name,
        burst=12_000.0,
        rate=mbps(2),
        deadline=deadline,
        priority=priority,
    )


# ---------------------------------------------------------------------- #
# demand generation
# ---------------------------------------------------------------------- #


def all_ordered_pairs(
    network: Network,
) -> List[Tuple[Hashable, Hashable]]:
    """Every ordered pair of distinct edge routers.

    This is the paper's Table 1 demand: "flows can be established between
    any two routers".
    """
    edges = network.edge_routers()
    return [(u, v) for u in edges for v in edges if u != v]


def random_pairs(
    network: Network,
    count: int,
    seed: int,
    *,
    allow_repeats: bool = True,
) -> List[Tuple[Hashable, Hashable]]:
    """``count`` random ordered pairs of distinct edge routers."""
    if count < 0:
        raise TrafficError(f"pair count must be >= 0, got {count}")
    edges = network.edge_routers()
    if len(edges) < 2:
        raise TrafficError("need at least two edge routers")
    rng = np.random.default_rng(seed)
    pairs: List[Tuple[Hashable, Hashable]] = []
    seen = set()
    attempts = 0
    while len(pairs) < count:
        attempts += 1
        if attempts > 100 * max(count, 1) + 1000:
            raise TrafficError(
                "could not generate enough distinct pairs; "
                "reduce count or set allow_repeats=True"
            )
        i, j = rng.integers(0, len(edges), size=2)
        if i == j:
            continue
        pair = (edges[int(i)], edges[int(j)])
        if not allow_repeats and pair in seen:
            continue
        seen.add(pair)
        pairs.append(pair)
    return pairs


def uniform_flow_demand(
    pairs: Sequence[Tuple[Hashable, Hashable]],
    class_name: str,
    flows_per_pair: int = 1,
    id_prefix: str = "f",
) -> List[FlowSpec]:
    """``flows_per_pair`` identical flows of one class for every pair."""
    if flows_per_pair < 1:
        raise TrafficError(
            f"flows_per_pair must be >= 1, got {flows_per_pair}"
        )
    flows = []
    for p_idx, (src, dst) in enumerate(pairs):
        for rep in range(flows_per_pair):
            flows.append(
                FlowSpec(
                    flow_id=f"{id_prefix}{p_idx}_{rep}",
                    class_name=class_name,
                    source=src,
                    destination=dst,
                )
            )
    return flows


def gravity_demand(
    network: Network,
    total_flows: int,
    class_name: str,
    seed: int,
    *,
    skew: float = 1.0,
    id_prefix: str = "g",
) -> List[FlowSpec]:
    """Gravity-model demand: flow volume proportional to endpoint mass.

    Each edge router gets a random "mass" ``m ~ Uniform(0,1)^skew``
    (higher ``skew`` = more concentrated demand, the realistic hotspot
    shape); pair ``(u, v)`` attracts flows with probability proportional
    to ``m_u * m_v``.  Deterministic per seed.
    """
    if total_flows < 0:
        raise TrafficError("total_flows must be >= 0")
    if skew <= 0:
        raise TrafficError("skew must be positive")
    edges = network.edge_routers()
    if len(edges) < 2:
        raise TrafficError("need at least two edge routers")
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.0, 1.0, size=len(edges)) ** skew + 1e-9
    pairs = [
        (i, j)
        for i in range(len(edges))
        for j in range(len(edges))
        if i != j
    ]
    weights = np.asarray([mass[i] * mass[j] for i, j in pairs])
    weights = weights / weights.sum()
    choices = rng.choice(len(pairs), size=total_flows, p=weights)
    flows = []
    for k, c in enumerate(choices):
        i, j = pairs[int(c)]
        flows.append(
            FlowSpec(
                flow_id=f"{id_prefix}{seed}_{k}",
                class_name=class_name,
                source=edges[i],
                destination=edges[j],
            )
        )
    return flows
