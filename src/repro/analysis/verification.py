"""Verification of safe utilization assignments (Figure 2).

The first of the paper's three configuration procedures: given a topology,
a set of routes and a utilization assignment, decide whether every class's
end-to-end deadline is guaranteed.  This module is the user-facing wrapper
over :mod:`repro.analysis.delays` (two-class systems) and
:mod:`repro.analysis.multiclass` (general systems); it always runs the
multi-class machinery when more than one real-time class is registered and
the single-class path otherwise — tests pin both paths to each other.  The
single-class path is :func:`~repro.analysis.theorem3.theorem3_fixed_point`,
plain Python that reaches the numpy solver's verdicts in dependency
order, so a process that only certifies and serves a one-class
configuration never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..topology.network import Network
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry, TrafficClass
from .theorem3 import theorem3_fixed_point

__all__ = ["VerificationResult", "verify_assignment"]

RoutesInput = Union[
    Sequence[Sequence[Hashable]],
    Mapping[str, Sequence[Sequence[Hashable]]],
]


@dataclass
class VerificationResult:
    """Outcome of the Figure 2 procedure.

    Attributes
    ----------
    success:
        ``True`` iff all deadline requirements are guaranteed (the
        procedure's SUCCESS/FAILURE verdict).
    reason:
        Human-readable explanation on failure ("" on success).
    worst_route_delay:
        ``{class_name: worst end-to-end bound in seconds}``.
    slack:
        ``{class_name: deadline - worst bound}`` (negative when violated).
    iterations:
        Fixed-point iterations spent.
    server_delays, route_delays:
        Per class, the per-server and per-route bounds: lists for one
        real-time class, ``float64`` arrays for several.
    """

    success: bool
    reason: str
    worst_route_delay: Dict[str, float]
    slack: Dict[str, float]
    iterations: int
    server_delays: Dict[str, Any] = field(repr=False, default_factory=dict)
    route_delays: Dict[str, Any] = field(repr=False, default_factory=dict)


def _normalize_routes(
    routes: RoutesInput, rt_classes: List[TrafficClass]
) -> Dict[str, List[Sequence[Hashable]]]:
    """Accept a shared route list or a per-class mapping."""
    if isinstance(routes, Mapping):
        out = {}
        for cls in rt_classes:
            if cls.name not in routes:
                raise ConfigurationError(
                    f"no routes given for class {cls.name!r}"
                )
            out[cls.name] = list(routes[cls.name])
        return out
    shared = list(routes)
    return {cls.name: shared for cls in rt_classes}


def verify_assignment(
    network: Union[Network, LinkServerGraph],
    routes: RoutesInput,
    registry: ClassRegistry,
    alphas: Mapping[str, float],
    *,
    warm_start: Optional[Mapping[str, Sequence[float]]] = None,
) -> VerificationResult:
    """Run the Figure 2 verification procedure.

    Parameters
    ----------
    network:
        Topology (or its pre-built link-server expansion).
    routes:
        Either one route list shared by all classes, or a per-class-name
        mapping of route lists.  Routes are router-level paths.
    registry:
        Traffic classes; at least one must be real-time.
    alphas:
        Per-class utilization assignment for every real-time class.
    warm_start:
        The ``server_delays`` of an earlier result on the same routes at
        a pointwise lower assignment: its least fixed point lies below
        this one's, so the iteration may start there.

    Returns
    -------
    VerificationResult
        With ``success=True`` iff every class's worst-case end-to-end
        delay bound is within its deadline for every route.
    """
    graph = (
        network
        if isinstance(network, LinkServerGraph)
        else LinkServerGraph(network)
    )
    rt_classes = registry.realtime_classes()
    if not rt_classes:
        raise ConfigurationError("registry has no real-time class to verify")
    for cls in rt_classes:
        if cls.name not in alphas:
            raise ConfigurationError(f"missing alpha for class {cls.name!r}")
        a = float(alphas[cls.name])
        if not (0.0 < a <= 1.0):
            raise ConfigurationError(
                f"alpha for class {cls.name!r} must be in (0, 1], got {a}"
            )
    routes_by_class = _normalize_routes(routes, rt_classes)

    if len(rt_classes) == 1:
        cls = rt_classes[0]
        fp = theorem3_fixed_point(
            graph, routes_by_class[cls.name], cls, float(alphas[cls.name]),
            warm_start=None if warm_start is None else warm_start[cls.name],
        )
        worst = max(fp.route_delays) if fp.route_delays else 0.0
        if fp.diverged:
            reason = (
                f"delay fixed point diverged for class {cls.name!r}: "
                "utilization too high for this route set"
            )
        elif fp.deadline_violated:
            reason = (
                f"class {cls.name!r} misses its deadline: worst route "
                f"bound {worst * 1e3:.2f} ms "
                f"> {cls.deadline * 1e3:.2f} ms"
            )
        elif not fp.converged:
            reason = "fixed point did not converge within iteration budget"
        else:
            reason = ""
        return VerificationResult(
            success=fp.safe,
            reason=reason,
            worst_route_delay={cls.name: worst},
            slack={cls.name: cls.deadline - worst},
            iterations=fp.iterations,
            server_delays={cls.name: fp.delays},
            route_delays={cls.name: fp.route_delays},
        )

    # More than one real-time class: the paper's scenarios (and every
    # served configuration) have one, so only this branch loads it.
    import numpy as np

    from .multiclass import multi_class_delays

    mc = multi_class_delays(
        graph, routes_by_class, registry, alphas,
        warm_start=None if warm_start is None else np.stack(
            [warm_start[c.name] for c in rt_classes]
        ),
    )
    worst = {n: c.worst_route_delay for n, c in mc.per_class.items()}
    slack = {n: c.slack for n, c in mc.per_class.items()}
    if mc.diverged:
        reason = "multi-class delay fixed point diverged"
    elif mc.deadline_violated or not mc.safe:
        misses = [
            n for n, c in mc.per_class.items() if not c.meets_deadline
        ]
        reason = (
            f"classes miss deadlines: {misses}"
            if misses
            else "deadline violated during iteration"
        )
    elif not mc.converged:
        reason = "fixed point did not converge within iteration budget"
    else:
        reason = ""
    return VerificationResult(
        success=mc.safe,
        reason=reason,
        worst_route_delay=worst,
        slack=slack,
        iterations=mc.iterations,
        server_delays={n: c.server_delays for n, c in mc.per_class.items()},
        route_delays={n: c.route_delays for n, c in mc.per_class.items()},
    )
