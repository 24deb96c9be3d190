"""Packet records for the discrete-event simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional

import numpy as np

__all__ = ["Packet"]


@dataclass
class Packet:
    """One packet traversing a route of link servers.

    Times are simulation seconds.  ``hop_arrivals[i]`` is the arrival time
    at the ``i``-th server of the route; ``delivered_at`` is set when the
    last transmission completes.
    """

    packet_id: int
    flow_id: Hashable
    class_name: str
    priority: int
    size_bits: float
    servers: np.ndarray            # int64 route, in link-server indices
    created_at: float
    hop: int = 0
    hop_arrivals: List[float] = field(default_factory=list)
    delivered_at: Optional[float] = None

    @property
    def end_to_end_delay(self) -> float:
        """Delivery time minus creation time (seconds)."""
        if self.delivered_at is None:
            raise ValueError(f"packet {self.packet_id} not delivered yet")
        return self.delivered_at - self.created_at

    def hop_delay(self, hop: int, departure: float) -> float:
        """Residence time at one hop given its departure instant."""
        return departure - self.hop_arrivals[hop]
