"""Statistical admission control by calibrated overbooking.

The deterministic controller admits at most ``floor(alpha*C/rho)`` flows
per link — the number the worst-case analysis certifies.  A *statistical*
service instead promises "at most a ``target`` fraction of packets miss
the deadline" and may admit more.  This module implements the simplest
honest version of the paper's Section 7 outlook:

:func:`calibrate_overbooking` searches for the largest overbooking
factor whose *simulated* miss-probability upper confidence bound stays
within the target, on a caller-supplied reference scenario.  Applied at
run time, the factor scales each link's slot capacity; the admission
test stays O(path length).

The calibration is Monte-Carlo, not analytic: it inherits the usual
caveat that the certificate holds for traffic resembling the reference
scenario.  That trade — deterministic certainty for measured capacity —
is exactly what the paper's closing paragraph proposes to explore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry
from ..traffic.flows import FlowSpec
from .empirical import DelayDistribution, estimate_delay_distribution

__all__ = [
    "CalibrationResult",
    "calibrate_overbooking",
]


@dataclass
class CalibrationResult:
    """Outcome of an overbooking calibration.

    Attributes
    ----------
    factor:
        Largest factor whose simulated miss-probability upper bound met
        the target (1.0 when even mild overbooking misses too much).
    target_miss:
        The requested per-packet deadline-miss budget.
    evaluations:
        ``[(factor, measured miss, upper confidence bound)]`` trace.
    distribution:
        The pooled delay distribution at the accepted factor.
    """

    factor: float
    target_miss: float
    evaluations: List[Tuple[float, float, float]]
    distribution: Optional[DelayDistribution]

    @property
    def extra_capacity(self) -> float:
        """Fractional capacity gained over the deterministic controller."""
        return self.factor - 1.0


def calibrate_overbooking(
    graph: LinkServerGraph,
    registry: ClassRegistry,
    *,
    class_name: str,
    deadline: float,
    reference_flows: Callable[[float], Sequence[Tuple[FlowSpec, Sequence[Hashable]]]],
    target_miss: float,
    packet_size: float,
    factors: Sequence[float] = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0),
    horizon: float = 1.0,
    replications: int = 3,
    confidence: float = 0.95,
    seed: int = 0,
) -> CalibrationResult:
    """Find the largest safe overbooking factor on a reference scenario.

    Parameters
    ----------
    reference_flows:
        Callable mapping a factor to the flow population (with routes)
        that a controller with ``factor`` times the certified per-link
        slots would admit — typically that many flows on the hottest
        paths.  The calibration simulates exactly that population.
    target_miss:
        Acceptable per-packet deadline-miss probability (e.g. ``1e-3``).
    factors:
        Increasing candidate factors; the scan stops at the first factor
        whose upper confidence bound exceeds the target (miss rate is
        monotone in load, so later factors cannot pass).
    """
    if target_miss <= 0 or target_miss >= 1:
        raise ConfigurationError("target_miss must be in (0, 1)")
    if list(factors) != sorted(factors) or factors[0] < 1.0:
        raise ConfigurationError(
            "factors must be increasing and start at >= 1.0"
        )
    best = 1.0
    best_dist: Optional[DelayDistribution] = None
    evaluations: List[Tuple[float, float, float]] = []
    for factor in factors:
        flows = list(reference_flows(factor))
        dist = estimate_delay_distribution(
            graph,
            registry,
            flows,
            class_name=class_name,
            packet_size=packet_size,
            horizon=horizon,
            replications=replications,
            seed=seed,
        )
        measured = dist.miss_probability(deadline)
        upper = dist.miss_probability_upper(deadline, confidence)
        evaluations.append((factor, measured, upper))
        if upper <= target_miss:
            best = factor
            best_dist = dist
        else:
            break
    return CalibrationResult(
        factor=best,
        target_miss=target_miss,
        evaluations=evaluations,
        distribution=best_dist,
    )
