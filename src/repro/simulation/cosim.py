"""Admission/packet co-simulation.

The strongest end-to-end validation the library offers: replay a dynamic
flow schedule through a run-time admission controller and simultaneously
simulate the *admitted* traffic at packet level.  If the configuration was
verified (Figure 2) and the controller enforces it, **no admitted packet
may miss its class deadline** — an executable restatement of the paper's
whole pipeline.

The co-simulation is two-phase (admission decisions in the paper's model
do not depend on queue state, only on the utilization ledger, so the
phases commute):

1. replay the schedule through the controller, recording each admitted
   flow's lifetime ``[arrival, departure)``;
2. run the packet simulator with one windowed source per admitted flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence

from ..admission.base import AdmissionController
from ..admission.statistics import ReplayStats, replay_schedule
from ..errors import SimulationError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry
from ..traffic.generators import FlowEvent
from .metrics import SimulationReport
from .simulator import PacketPattern, Simulator

__all__ = ["CoSimulationResult", "co_simulate"]


@dataclass
class CoSimulationResult:
    """Joint outcome of the admission replay and the packet run."""

    admission: ReplayStats
    packets: SimulationReport
    deadline_misses: Dict[str, int]
    flows_simulated: int

    @property
    def guarantees_held(self) -> bool:
        """True iff no admitted packet missed its class deadline."""
        return all(v == 0 for v in self.deadline_misses.values())


def co_simulate(
    graph: LinkServerGraph,
    registry: ClassRegistry,
    controller: AdmissionController,
    schedule: Sequence[FlowEvent],
    *,
    packet_size: float,
    pattern_kind: str = "poisson",
    horizon: Optional[float] = None,
    seed: int = 0,
) -> CoSimulationResult:
    """Replay ``schedule`` through ``controller`` and simulate admitted flows.

    Parameters
    ----------
    controller:
        A fresh admission controller wired to the same ``graph`` and
        configured route map (flows without pinned routes resolve through
        it).
    packet_size:
        Packet size in bits for every simulated source.
    pattern_kind:
        Source behavior of admitted flows (``"poisson"``, ``"periodic"``
        or the adversarial ``"greedy"``).
    horizon:
        Simulation end; defaults to the last schedule event time.
    """
    if not schedule:
        raise SimulationError("empty schedule")
    if horizon is None:
        horizon = max(e.time for e in schedule)
    if horizon <= 0:
        raise SimulationError("horizon must be positive")

    # Phase 1: admission decisions and lifetimes.
    arrivals: Dict[Hashable, float] = {}
    departures: Dict[Hashable, float] = {}
    for event in schedule:
        if event.kind == "arrival":
            arrivals.setdefault(event.flow.flow_id, event.time)
        else:
            departures[event.flow.flow_id] = event.time
    stats = replay_schedule(controller, schedule)
    # This replay's admissions only: a reused controller's earlier
    # flows are not part of this schedule's population.
    admitted_ids = set(stats.admitted_ids)

    # Phase 2: packet simulation of the admitted population.
    sim = Simulator(graph, registry)
    flows_simulated = 0
    for j, event in enumerate(schedule):
        if event.kind != "arrival":
            continue
        flow = event.flow
        if flow.flow_id not in admitted_ids:
            continue
        start = arrivals[flow.flow_id]
        stop = departures.get(flow.flow_id, horizon)
        if start >= horizon:
            continue
        sim.add_flow(
            flow,
            controller.resolve_route(flow),
            PacketPattern(
                pattern_kind,
                packet_size=packet_size,
                seed=seed * 92_821 + j,
            ),
            start=start,
            stop=min(stop, horizon),
        )
        flows_simulated += 1
    if flows_simulated == 0:
        raise SimulationError("no admitted flow overlaps the horizon")
    report = sim.run(horizon=horizon)

    misses = {
        cls.name: report.deadline_misses(cls.name, cls.deadline)
        for cls in registry.realtime_classes()
    }
    return CoSimulationResult(
        admission=stats,
        packets=report,
        deadline_misses=misses,
        flows_simulated=flows_simulated,
    )
