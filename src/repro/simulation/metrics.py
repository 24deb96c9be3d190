"""Measurement collection for the packet simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

__all__ = ["DelayRecorder", "SimulationReport"]


class DelayRecorder:
    """Accumulates per-class end-to-end and per-(server, class) hop delays."""

    def __init__(self, track_flow_delays: bool = False):
        self._e2e: Dict[str, List[float]] = {}
        self._hop_max: Dict[Tuple[int, str], float] = {}
        self._flow_max: Dict[Hashable, float] = {}
        self._flow_count: Dict[Hashable, int] = {}
        # Full per-flow delay series (opt-in: the chaos harness needs
        # per-flow miss counts; regular validation only needs the max).
        self._flow_delays: Optional[Dict[Hashable, List[float]]] = (
            {} if track_flow_delays else None
        )
        self.packets_delivered = 0

    def record_delivery(
        self, class_name: str, delay: float, flow_id: Hashable = None
    ) -> None:
        self._e2e.setdefault(class_name, []).append(delay)
        self.packets_delivered += 1
        if flow_id is not None:
            if delay > self._flow_max.get(flow_id, -1.0):
                self._flow_max[flow_id] = delay
            self._flow_count[flow_id] = self._flow_count.get(flow_id, 0) + 1
            if self._flow_delays is not None:
                self._flow_delays.setdefault(flow_id, []).append(delay)

    def record_hop(
        self, server_index: int, class_name: str, residence: float
    ) -> None:
        key = (server_index, class_name)
        if residence > self._hop_max.get(key, 0.0):
            self._hop_max[key] = residence

    # ------------------------------------------------------------------ #

    def e2e_delays(self, class_name: str) -> np.ndarray:
        return np.asarray(self._e2e.get(class_name, ()), dtype=np.float64)

    def classes(self) -> List[str]:
        return sorted(self._e2e)

    def max_e2e(self, class_name: str) -> float:
        d = self.e2e_delays(class_name)
        return float(d.max()) if d.size else 0.0

    def flow_deadline_misses(
        self, flow_id: Hashable, deadline: float
    ) -> int:
        """Delivered packets of the flow that exceeded ``deadline``.

        Requires ``track_flow_delays=True`` at construction.
        """
        if self._flow_delays is None:
            raise ValueError(
                "per-flow delay tracking was not enabled "
                "(DelayRecorder(track_flow_delays=True))"
            )
        delays = self._flow_delays.get(flow_id, ())
        return sum(1 for d in delays if d > deadline)


@dataclass
class SimulationReport:
    """Summary handed back by :meth:`Simulator.run`.

    Attributes
    ----------
    horizon:
        Simulated time span in seconds.
    packets_injected / packets_delivered / packets_in_flight:
        Conservation accounting:
        injected == delivered + in_flight + dropped.
    packets_dropped:
        Packets lost to injected link/router failures (zero unless the
        run scheduled faults).
    dropped_per_flow:
        ``{flow_id: dropped packet count}`` for flows that lost packets.
    e2e:
        ``{class_name: delay array}`` of delivered packets.
    """

    horizon: float
    packets_injected: int
    packets_delivered: int
    packets_in_flight: int
    events_processed: int
    e2e: Dict[str, np.ndarray]
    recorder: DelayRecorder = field(repr=False, default=None)
    packets_dropped: int = 0
    dropped_per_flow: Dict[Hashable, int] = field(default_factory=dict)

    def max_e2e(self, class_name: str) -> float:
        d = self.e2e.get(class_name)
        return float(d.max()) if d is not None and d.size else 0.0

    def mean_e2e(self, class_name: str) -> float:
        d = self.e2e.get(class_name)
        return float(d.mean()) if d is not None and d.size else float("nan")

    def deadline_misses(self, class_name: str, deadline: float) -> int:
        """Packets of the class delivered after ``deadline`` seconds."""
        d = self.e2e.get(class_name)
        if d is None or d.size == 0:
            return 0
        return int(np.sum(d > deadline))

    @property
    def conserved(self) -> bool:
        """Every injected packet is delivered, queued, or dropped."""
        return (
            self.packets_injected
            == self.packets_delivered
            + self.packets_in_flight
            + self.packets_dropped
        )
