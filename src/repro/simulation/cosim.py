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

1. replay the schedule through the controller, which records one
   :class:`~repro.admission.statistics.Lifetime` per admitted interval;
2. :func:`simulate_lifetimes`: one windowed source per lifetime, on the
   route the controller committed for it.

The schedule is any ``TraceEvent`` timeline: a generator's, a recorded
trace, a served run's audit log, a decoded counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..admission.base import AdmissionController
from ..admission.statistics import Lifetime, ReplayStats, replay_schedule
from ..errors import SimulationError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry
from ..workload.trace import TraceEvent
from .metrics import SimulationReport
from .simulator import PacketPattern, Simulator

__all__ = ["CoSimulationResult", "co_simulate", "simulate_lifetimes"]


@dataclass
class CoSimulationResult:
    """Outcome of a packet run over admitted lifetimes, with the
    admission replay that produced them (``None`` when the lifetimes
    were handed to :func:`simulate_lifetimes` directly)."""

    packets: SimulationReport
    deadline_misses: Dict[str, int]
    flows_simulated: int
    admission: Optional[ReplayStats] = None

    @property
    def guarantees_held(self) -> bool:
        """True iff no admitted packet missed its class deadline."""
        return all(v == 0 for v in self.deadline_misses.values())


def simulate_lifetimes(
    sim: Simulator,
    lifetimes: Sequence[Lifetime],
    *,
    horizon: float,
    pattern_kind: str,
    packet_size: Optional[float] = None,
    seed: int = 0,
) -> Optional[CoSimulationResult]:
    """Attach one source per lifetime to ``sim`` and run it.

    A lifetime sends ``pattern_kind`` packets of ``packet_size`` bits
    (default: its class's burst) in ``[start, min(stop, horizon))``,
    seeded ``seed * 92_821 + index``.  Returns ``None``, without
    running, when no lifetime overlaps the horizon.
    """
    attached = 0
    for lifetime in lifetimes:
        stop = horizon if lifetime.stop is None else min(
            lifetime.stop, horizon
        )
        if lifetime.start >= stop:
            continue
        cls = sim.registry.get(lifetime.flow.class_name)
        sim.add_flow(
            lifetime.flow,
            lifetime.route,
            PacketPattern(
                pattern_kind,
                packet_size=cls.burst if packet_size is None else packet_size,
                seed=seed * 92_821 + lifetime.index,
            ),
            start=lifetime.start,
            stop=stop,
        )
        attached += 1
    if attached == 0:
        return None
    report = sim.run(horizon=horizon)
    return CoSimulationResult(
        packets=report,
        deadline_misses={
            cls.name: report.deadline_misses(cls.name, cls.deadline)
            for cls in sim.registry.realtime_classes()
        },
        flows_simulated=attached,
    )


def co_simulate(
    graph: LinkServerGraph,
    registry: ClassRegistry,
    controller: AdmissionController,
    schedule: Sequence[TraceEvent],
    *,
    packet_size: float,
    pattern_kind: str = "poisson",
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

    The simulation ends at the last schedule event.
    """
    if not schedule:
        raise SimulationError("empty schedule")
    horizon = max(e.time for e in schedule)
    if horizon <= 0:
        raise SimulationError("horizon must be positive")
    # This replay's admissions only: a reused controller's earlier
    # flows are not part of this schedule's population.
    stats = replay_schedule(controller, schedule)
    result = simulate_lifetimes(
        Simulator(graph, registry),
        stats.lifetimes,
        horizon=horizon,
        pattern_kind=pattern_kind,
        packet_size=packet_size,
    )
    if result is None:
        raise SimulationError("no admitted flow overlaps the horizon")
    result.admission = stats
    return result
