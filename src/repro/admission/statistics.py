"""Admission statistics: replaying dynamic flow schedules.

:func:`replay_schedule` drives any :class:`AdmissionController` with a
timed arrival/departure timeline — whatever produced it:
:func:`repro.workload.poisson_flow_schedule`, a recorded trace, an audit
log, a decoded counterexample — and collects the metrics the dynamic
experiments report (acceptance ratio, decision cost distribution, the
population trajectory) plus one :class:`Lifetime` per admitted interval,
the input of the packet-level checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..traffic.flows import FlowSpec
from ..workload.trace import TraceEvent
from .base import AdmissionController

__all__ = ["Lifetime", "ReplayStats", "replay_schedule"]


@dataclass
class Lifetime:
    """One contiguous interval a flow spent admitted on one route: the
    one the controller committed at admit time.  ``stop`` is ``None``
    while the flow is established; ``index`` (the arrival's position in
    the schedule) seeds the interval's packet source."""

    flow: FlowSpec
    route: List[Hashable]
    start: float
    stop: Optional[float] = None
    index: int = 0


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
    lifetimes:
        One :class:`Lifetime` per admitted interval, in schedule order
        (a flow id admitted twice has two).
    """

    attempts: int
    admitted: int
    rejected: int
    decision_seconds: np.ndarray
    population: List[Tuple[float, int]]
    peak_population: int
    lifetimes: List[Lifetime] = field(default_factory=list)

    @property
    def admitted_ids(self) -> List[Hashable]:
        """Ids of the flows this replay admitted, in schedule order."""
        return [lifetime.flow.flow_id for lifetime in self.lifetimes]

    @property
    def mean_decision_seconds(self) -> float:
        if self.decision_seconds.size == 0:
            return float("nan")
        return float(self.decision_seconds.mean())


def replay_schedule(
    controller: AdmissionController,
    schedule: Sequence[TraceEvent],
) -> ReplayStats:
    """Feed a timed arrival/departure schedule to a controller.

    Departures of flows this replay does not hold established (rejected,
    never arrived, already departed) are ignored.  Events must be
    time-ordered, as produced by the generators.
    """
    attempts = rejected = 0
    latencies: List[float] = []
    population: List[Tuple[float, int]] = []
    peak = 0
    lifetimes: List[Lifetime] = []
    live: Dict[Hashable, Lifetime] = {}

    for index, event in enumerate(schedule):
        if event.kind == "arrival":
            flow = event.flow
            decision = controller.admit(flow)
            attempts += 1
            latencies.append(decision.decision_seconds)
            if decision.admitted:
                live[event.flow_id] = lifetime = Lifetime(
                    flow,
                    controller.committed_route(event.flow_id),
                    event.time,
                    index=index,
                )
                lifetimes.append(lifetime)
            else:
                rejected += 1
        else:
            lifetime = live.pop(event.flow_id, None)
            if lifetime is not None:
                controller.release(event.flow_id)
                lifetime.stop = event.time
        count = controller.num_established
        peak = max(peak, count)
        population.append((event.time, count))

    return ReplayStats(
        attempts=attempts,
        admitted=len(lifetimes),
        rejected=rejected,
        decision_seconds=np.asarray(latencies, dtype=np.float64),
        population=population,
        peak_population=peak,
        lifetimes=lifetimes,
    )
