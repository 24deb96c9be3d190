"""Admission statistics: replaying dynamic flow schedules.

:func:`replay_schedule` drives any :class:`AdmissionController` with a
timed arrival/departure schedule (e.g. from
:func:`repro.traffic.generators.poisson_flow_schedule`) and collects the
metrics the dynamic experiments report: acceptance ratio, decision cost
distribution, and the population/utilization trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..traffic.generators import FlowEvent
from .base import AdmissionController

__all__ = ["ReplayStats", "replay_schedule"]


@dataclass
class ReplayStats:
    """Metrics from replaying a flow schedule through a controller.

    Attributes
    ----------
    attempts, admitted, rejected:
        Admission attempt counters.
    blocking_probability:
        ``rejected / attempts`` (NaN when no attempts).
    decision_seconds:
        Per-attempt decision latencies in schedule order.
    population:
        ``(time, established_flows)`` samples after every event.
    peak_population:
        Largest concurrent established-flow count.
    admitted_ids:
        Ids of the flows this replay admitted, in schedule order.
    """

    attempts: int
    admitted: int
    rejected: int
    decision_seconds: np.ndarray
    population: List[Tuple[float, int]]
    peak_population: int
    admitted_ids: List[Hashable] = field(default_factory=list)

    @property
    def blocking_probability(self) -> float:
        if self.attempts == 0:
            return float("nan")
        return self.rejected / self.attempts

    @property
    def mean_decision_seconds(self) -> float:
        if self.decision_seconds.size == 0:
            return float("nan")
        return float(self.decision_seconds.mean())

    @property
    def p99_decision_seconds(self) -> float:
        if self.decision_seconds.size == 0:
            return float("nan")
        return float(np.percentile(self.decision_seconds, 99))


def replay_schedule(
    controller: AdmissionController,
    schedule: Sequence[FlowEvent],
    *,
    max_events: Optional[int] = None,
) -> ReplayStats:
    """Feed a timed arrival/departure schedule to a controller.

    Departures of flows that were rejected (or never arrived within the
    event budget) are ignored.  Events must be time-ordered, as produced by
    the generators.
    """
    attempts = admitted = rejected = 0
    latencies: List[float] = []
    population: List[Tuple[float, int]] = []
    peak = 0
    admitted_ids: List[Hashable] = []
    live_ids: set = set()

    events = schedule if max_events is None else schedule[:max_events]
    for event in events:
        if event.kind == "arrival":
            decision = controller.admit(event.flow)
            attempts += 1
            latencies.append(decision.decision_seconds)
            if decision.admitted:
                admitted += 1
                admitted_ids.append(event.flow.flow_id)
                live_ids.add(event.flow.flow_id)
            else:
                rejected += 1
        elif event.kind == "departure":
            if event.flow.flow_id in live_ids:
                controller.release(event.flow.flow_id)
                live_ids.discard(event.flow.flow_id)
        else:  # pragma: no cover - generator only emits two kinds
            raise ValueError(f"unknown event kind {event.kind!r}")
        count = controller.num_established
        peak = max(peak, count)
        population.append((event.time, count))

    return ReplayStats(
        attempts=attempts,
        admitted=admitted,
        rejected=rejected,
        decision_seconds=np.asarray(latencies, dtype=np.float64),
        population=population,
        peak_population=peak,
        admitted_ids=admitted_ids,
    )
