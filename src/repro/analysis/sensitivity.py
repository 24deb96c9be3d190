"""What-if analysis of a verified configuration: how much higher could
the utilization go before the certificate of fixed routes breaks
(:func:`critical_alpha`)?

Built from the same fixed point as verification, so the answer is a
certificate, not an estimate.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from ..errors import AnalysisError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import TrafficClass
from .delays import single_class_delays

__all__ = ["critical_alpha"]


def critical_alpha(
    graph: LinkServerGraph,
    router_paths: Sequence[Sequence[Hashable]],
    traffic_class: TrafficClass,
    *,
    n_mode: str = "uniform",
    low: float = 1e-3,
    high: float = 1.0,
    resolution: float = 1e-3,
) -> float:
    """Largest utilization for which these fixed routes verify.

    Bisection on the (monotone) verification verdict.  Returns ``low``'s
    floor if even that fails (raises) and ``high`` if everything passes.
    """
    if not (0 < low < high <= 1.0):
        raise AnalysisError("need 0 < low < high <= 1")

    def safe(alpha: float) -> bool:
        return single_class_delays(
            graph, router_paths, traffic_class, alpha, n_mode=n_mode
        ).safe

    if not safe(low):
        raise AnalysisError(
            f"routes do not verify even at alpha = {low}"
        )
    if safe(high):
        return high
    lo, hi = low, high
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if safe(mid):
            lo = mid
        else:
            hi = mid
    return lo
