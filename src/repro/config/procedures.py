"""Configuration procedures (Section 5) beyond route selection.

The paper distinguishes three configuration tasks, depending on what is
given:

1. **Verification** — routes and utilization given: check deadlines
   (:func:`verify_safe_assignment`, a re-export of the Figure 2 procedure).
2. **Safe route selection** — utilization given, routes wanted
   (:class:`repro.routing.heuristic.SafeRouteSelector`).
3. **Utilization maximization** — neither given: select routes to maximize
   the assignable utilization (:mod:`repro.config.maximize`).

A multi-class proportional variant (:func:`maximize_multiclass_scale`)
implements the extension the paper sketches at the end of Section 5.4:
scale a vector of per-class utilizations by the largest common factor that
keeps every class schedulable on fixed routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple,
)

from ..analysis.verification import (
    VerificationResult, assignment_verifier, verify_assignment,
)
from ..errors import ConfigurationError
from ..topology.network import Network
from ..traffic.classes import ClassRegistry
from .maximize import bisect_alpha

__all__ = [
    "verify_safe_assignment",
    "MulticlassScaleResult",
    "maximize_multiclass_scale",
]

Pair = Tuple[Hashable, Hashable]

# Configuration type 1 is exactly the Figure 2 procedure.
verify_safe_assignment = verify_assignment


@dataclass
class MulticlassScaleResult:
    """Outcome of the proportional multi-class maximization.

    ``alphas`` is the certified-safe per-class assignment
    ``scale * weights`` and ``verification`` its Figure 2 certificate.
    """

    scale: float
    alphas: Dict[str, float]
    verification: VerificationResult
    evaluations: List[Tuple[float, bool]]


def maximize_multiclass_scale(
    network: Network,
    routes: Mapping[str, Sequence[Sequence[Hashable]]],
    registry: ClassRegistry,
    weights: Mapping[str, float],
    *,
    resolution: float = 1e-3,
    scale_high: Optional[float] = None,
) -> MulticlassScaleResult:
    """Largest ``t`` such that ``alpha_i = t * w_i`` verifies on fixed routes.

    Section 5.4's trade-off between class utilizations, restricted to a
    proportional family: ``weights`` fixes the relative shares and, below
    a first probe of the top, :func:`~repro.config.maximize.bisect_alpha`
    finds the largest feasible common scale.  ``scale_high`` defaults to
    the largest ``t`` keeping every ``t * w_i <= 1`` and their sum ``<= 1``.
    """
    rt = registry.realtime_classes()
    if not rt:
        raise ConfigurationError("registry has no real-time class")
    for cls in rt:
        if cls.name not in weights or float(weights[cls.name]) <= 0:
            raise ConfigurationError(
                f"positive weight required for class {cls.name!r}"
            )
    w = {c.name: float(weights[c.name]) for c in rt}
    w_sum = sum(w.values())
    w_max = max(w.values())
    cap = min(1.0 / w_sum, 1.0 / w_max)
    high = cap if scale_high is None else min(float(scale_high), cap)

    verify = assignment_verifier(network, routes, registry)

    def check(t: float, warm) -> Optional[Tuple[VerificationResult, Any]]:
        result = verify({n: t * wi for n, wi in w.items()}, warm_start=warm)
        return (result, result.server_delays) if result.success else None

    # Probe the top first: everything may already fit.
    top = check(high, None)
    if top is not None:
        scale, best, evaluations = high, top[0], [(high, True)]
    else:
        scale, best, evaluations = bisect_alpha(
            check, 0.0, high, resolution=resolution
        )
        evaluations.insert(0, (high, False))
    return MulticlassScaleResult(
        scale=scale,
        alphas={name: scale * wi for name, wi in w.items()},
        verification=best,
        evaluations=evaluations,
    )
