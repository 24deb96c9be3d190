"""Parameter sweeps (extension experiments Ext-A/B of DESIGN.md).

The paper reports a single operating point; these sweeps trace how the
Theorem 4 bounds and the achieved maximum utilizations move with the
deadline ``D``, the burst ``T``, and the network diameter ``L`` — the
sensitivity analysis a deployment would need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..config.bounds import theorem4_lower_bound, theorem4_upper_bound
from ..config.maximize import (
    max_utilization_heuristic,
    max_utilization_shortest_path,
)
from ..errors import InfeasibleUtilization
from ..topology.network import Network
from ..topology.properties import analyze
from ..traffic.classes import TrafficClass
from .reporting import format_table
from .scenarios import PaperScenario, paper_scenario

__all__ = ["SweepPoint", "SweepResult", "CrossTopologyRow", "sweep_deadline",
           "sweep_burst", "cross_topology_table"]


@dataclass(frozen=True)
class SweepPoint:
    """One row of a sweep: parameter value and the four Table 1 columns.

    ``shortest_path`` / ``heuristic`` are None when the search was skipped
    (``include_searches=False``) or infeasible even at the lower bound.
    """

    parameter: float
    lower_bound: float
    upper_bound: float
    shortest_path: Optional[float] = None
    heuristic: Optional[float] = None


@dataclass
class SweepResult:
    name: str
    unit: str
    points: List[SweepPoint]

    def render(self) -> str:
        def fmt(v: Optional[float]) -> str:
            return f"{v:.3f}" if v is not None else "-"

        rows = [
            [
                f"{p.parameter:g}",
                fmt(p.lower_bound),
                fmt(p.shortest_path),
                fmt(p.heuristic),
                fmt(p.upper_bound),
            ]
            for p in self.points
        ]
        return format_table(
            [f"{self.name} ({self.unit})", "LB", "SP", "heuristic", "UB"],
            rows,
            title=f"Sweep: max utilization vs {self.name}",
        )

    def monotone_lower_bound(self, increasing: bool) -> bool:
        """Check LB monotonicity along the sweep (used by tests)."""
        vals = [p.lower_bound for p in self.points]
        pairs = zip(vals, vals[1:])
        if increasing:
            return all(a <= b + 1e-12 for a, b in pairs)
        return all(a + 1e-12 >= b for a, b in pairs)


def _table1_columns(
    fan_in: int,
    diameter: int,
    network: Network,
    pairs: Sequence,
    cls: TrafficClass,
    resolution: float,
    searches: bool,
) -> Tuple[float, float, Optional[float], Optional[float]]:
    """Table 1's columns for ``cls``: Theorem 4's bounds and, with
    ``searches``, the SP and heuristic maxima (None when infeasible)."""
    lb = theorem4_lower_bound(
        fan_in, diameter, cls.burst, cls.rate, cls.deadline
    )
    ub = theorem4_upper_bound(
        fan_in, diameter, cls.burst, cls.rate, cls.deadline
    )
    sp = heur = None
    if searches:
        try:
            sp = max_utilization_shortest_path(
                network, pairs, cls, resolution=resolution
            ).alpha
            heur = max_utilization_heuristic(
                network, pairs, cls, resolution=resolution
            ).alpha
        except InfeasibleUtilization:
            sp = heur = None
    return lb, ub, sp, heur


def _sweep(
    name: str,
    unit: str,
    values: Sequence[float],
    field: str,
    scenario: PaperScenario,
    include_searches: bool,
    resolution: float,
) -> SweepResult:
    """One point per value of ``field`` of the scenario's class."""
    points = []
    for value in values:
        lb, ub, sp, heur = _table1_columns(
            scenario.fan_in, scenario.diameter, scenario.network,
            scenario.pairs, replace(scenario.voice, **{field: float(value)}),
            resolution, include_searches,
        )
        points.append(SweepPoint(float(value), lb, ub, sp, heur))
    return SweepResult(name=name, unit=unit, points=points)


def sweep_deadline(
    deadlines: Sequence[float] = (0.04, 0.06, 0.08, 0.10, 0.15, 0.2, 0.3, 0.4),
    *,
    scenario: Optional[PaperScenario] = None,
    include_searches: bool = False,
    resolution: float = 0.01,
) -> SweepResult:
    """Max utilization vs end-to-end deadline ``D`` (seconds)."""
    sc = scenario if scenario is not None else paper_scenario()
    return _sweep(
        "deadline", "s", deadlines, "deadline", sc, include_searches,
        resolution,
    )


def sweep_burst(
    bursts: Sequence[float] = (160, 320, 640, 1280, 2560, 5120),
    *,
    scenario: Optional[PaperScenario] = None,
    include_searches: bool = False,
    resolution: float = 0.01,
) -> SweepResult:
    """Max utilization vs leaky-bucket burst ``T`` (bits)."""
    sc = scenario if scenario is not None else paper_scenario()
    return _sweep(
        "burst", "bits", bursts, "burst", sc, include_searches, resolution,
    )


@dataclass(frozen=True)
class CrossTopologyRow:
    """Table 1 columns for one topology (Ext-H)."""

    name: str
    diameter: int
    fan_in: int
    lower_bound: float
    upper_bound: float
    shortest_path: Optional[float]
    heuristic: Optional[float]

    @property
    def ordering_holds(self) -> bool:
        """LB <= SP <= heuristic <= UB (when both searches ran)."""
        if self.shortest_path is None or self.heuristic is None:
            return False
        return (
            self.lower_bound - 1e-9 <= self.shortest_path
            <= self.heuristic + 1e-9
            and self.heuristic <= self.upper_bound + 1e-9
        )


def _cross_topology_row(
    name: str, network: Network, cls: TrafficClass, resolution: float
) -> CrossTopologyRow:
    from ..traffic.generators import all_ordered_pairs

    report = analyze(network)
    lb, ub, sp, heur = _table1_columns(
        report.max_degree, report.diameter, network,
        all_ordered_pairs(network), cls, resolution, True,
    )
    return CrossTopologyRow(
        name=name,
        diameter=report.diameter,
        fan_in=report.max_degree,
        lower_bound=lb,
        upper_bound=ub,
        shortest_path=sp,
        heuristic=heur,
    )


def cross_topology_table(
    topologies: Sequence[Tuple[str, Network]],
    traffic_class: TrafficClass,
    *,
    resolution: float = 0.01,
) -> List[CrossTopologyRow]:
    """The Table 1 experiment on several topologies (Ext-H), one row per
    topology in ``topologies`` order."""
    return [
        _cross_topology_row(name, network, traffic_class, resolution)
        for name, network in topologies
    ]
