"""Multi-class delay bounds (Section 5.4, Theorem 5).

With several real-time classes under class-based static priority, the
worst-case delay of class ``i`` at server ``k`` depends on every class of
the same or higher priority.  Writing ``A_l = (T_l + rho_l*Y_l,k) * alpha_l/rho_l``
and ``g_l = alpha_l*(T_l + rho_l*Y_l,k) / (rho_l*(N_k - alpha_l))``, our
reconstruction of Theorem 5 is::

    d_{i,k} = [ sum_{l<=i} A_l  +  (sum_{l<=i} alpha_l - 1) * min_{l<=i} g_l ]
              / (1 - sum_{l<i} alpha_l)

(classes indexed in priority order; ``l <= i`` are the classes that can
delay class ``i``).  The camera-ready formula has garbled indices; this
form is fixed by two requirements the paper states or implies:

* for a single real-time class it must reduce *exactly* to Theorem 3
  (checked by tests against :func:`repro.analysis.beta.theorem3_delay`);
* with the negative coefficient ``(sum alpha - 1)``, taking the
  ``min`` over the per-class busy-period terms ``g_l`` is the conservative
  (largest-delay) resolution of the ambiguity.

Interference is route-aware: class ``l`` contributes at server ``k`` only
if some class-``l`` route traverses ``k`` (admission control never lets
class-``l`` traffic appear elsewhere).

All classes are iterated *jointly* to the least fixed point; the update is
monotone for fan-in >= 2 (see the derivative analysis in DESIGN.md), which
the constructor enforces when more than one real-time class is present.
The joint iteration is the single-class loop of
:func:`~repro.analysis.fixedpoint.solve_fixed_point` over one route
system that stacks the classes side by side, with :class:`Theorem5Map`
in place of the Theorem 3 map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Hashable, List, Mapping, Optional, Sequence,
)

import numpy as np

from ..errors import AnalysisError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry, TrafficClass
from .fixedpoint import FixedPointResult, solve_fixed_point
from .routesystem import RouteSystem

__all__ = [
    "MultiClassResult", "ClassDelays", "Theorem5Map", "class_alphas",
    "multi_class_delays", "multi_class_solver", "split_by_class",
]


@dataclass
class ClassDelays:
    """Per-class output of the multi-class analysis."""

    class_name: str
    deadline: float
    server_delays: np.ndarray
    route_delays: np.ndarray

    @property
    def worst_route_delay(self) -> float:
        return float(self.route_delays.max()) if self.route_delays.size else 0.0

    @property
    def meets_deadline(self) -> bool:
        return self.worst_route_delay <= self.deadline

    @property
    def slack(self) -> float:
        return self.deadline - self.worst_route_delay


@dataclass
class MultiClassResult:
    """Joint fixed-point outcome for all real-time classes."""

    per_class: Dict[str, ClassDelays]
    converged: bool
    deadline_violated: bool
    diverged: bool
    iterations: int
    residual: float

    @property
    def safe(self) -> bool:
        return (
            self.converged
            and not self.deadline_violated
            and all(c.meets_deadline for c in self.per_class.values())
        )


def multi_class_delays(
    graph: LinkServerGraph,
    routes_by_class: Mapping[str, Sequence[Sequence[Hashable]]],
    registry: ClassRegistry,
    alphas: Mapping[str, float],
) -> MultiClassResult:
    """Configuration-time delay bounds for every real-time class.

    Parameters
    ----------
    routes_by_class:
        Router-level paths per class name.  Every real-time class in the
        registry must appear (possibly with an empty route list).
    alphas:
        Bandwidth fraction per real-time class; their sum must not
        exceed 1.
    """
    return multi_class_solver(graph, routes_by_class, registry)(alphas, None)


def multi_class_solver(
    graph: LinkServerGraph,
    routes_by_class: Mapping[str, Sequence[Sequence[Hashable]]],
    registry: ClassRegistry,
) -> Callable[[Mapping[str, float], Optional[np.ndarray]], MultiClassResult]:
    """:func:`multi_class_delays` on fixed routes as a function of
    ``(alphas, warm_start)``: the routes are compiled here, once, and
    each call only solves them.

    ``warm_start`` is ``None`` or a ``float64[num_classes, num_servers]``
    delay matrix known to lie below the least fixed point (classes in
    priority order): the converged matrix at a pointwise lower
    assignment, or of a route subset (adding routes only enlarges the
    monotone update).
    """
    rt_classes: List[TrafficClass] = registry.realtime_classes()
    if not rt_classes:
        raise AnalysisError("registry has no real-time class")
    for cls in rt_classes:
        if cls.name not in routes_by_class:
            raise AnalysisError(f"missing routes for class {cls.name!r}")
    fan_in = graph.uniform_fan_in()
    n_classes = len(rt_classes)
    n_servers = graph.num_servers
    # One route system over C*S servers: class i's routes live on servers
    # [i*S, (i+1)*S), so the shared loop computes every class's own Y.
    class_routes = [
        graph.routes_servers(routes_by_class[c.name]) for c in rt_classes
    ]
    system = RouteSystem(
        [
            np.asarray(r, dtype=np.int64) + i * n_servers
            for i, routes in enumerate(class_routes)
            for r in routes
        ],
        n_classes * n_servers,
    )
    counts = [len(routes) for routes in class_routes]
    deadlines = np.repeat([c.deadline for c in rt_classes], counts)

    def solve(
        alphas: Mapping[str, float], warm_start: Optional[np.ndarray]
    ) -> MultiClassResult:
        alpha_vec = class_alphas(rt_classes, alphas, fan_in)
        initial = None
        if warm_start is not None:
            initial = np.asarray(warm_start, dtype=np.float64)
            if initial.shape != (n_classes, n_servers):
                raise AnalysisError(
                    f"warm start has shape {initial.shape}, expected "
                    f"({n_classes}, {n_servers})"
                )
            initial = initial.reshape(-1)
        update = Theorem5Map(
            system.touched_servers.reshape(n_classes, n_servers),
            np.asarray([c.burst for c in rt_classes]),
            np.asarray([c.rate for c in rt_classes]),
            alpha_vec,
            fan_in,
        )
        result = solve_fixed_point(
            system, update, initial=initial, deadlines=deadlines
        )
        return split_by_class(result, rt_classes, counts)

    return solve


def class_alphas(
    rt_classes: Sequence[TrafficClass],
    alphas: Mapping[str, float],
    fan_in: int,
) -> np.ndarray:
    """The per-class alpha vector (priority order), validated.

    Every real-time class needs an alpha in ``(0, 1]``, their sum must not
    exceed 1, and with several classes the network's ``N`` must be at
    least 2 (monotonicity of the Theorem 5 update).
    """
    for cls in rt_classes:
        if cls.name not in alphas:
            raise AnalysisError(f"missing alpha for class {cls.name!r}")
    alpha_vec = np.asarray(
        [float(alphas[c.name]) for c in rt_classes], dtype=np.float64
    )
    if np.any(alpha_vec <= 0) or np.any(alpha_vec > 1):
        raise AnalysisError("every class alpha must be in (0, 1]")
    if alpha_vec.sum() > 1.0 + 1e-12:
        raise AnalysisError(
            f"total real-time utilization {alpha_vec.sum():.4f} exceeds 1"
        )
    if len(rt_classes) > 1 and fan_in < 2:
        raise AnalysisError(
            "multi-class analysis requires fan-in N >= 2 "
            "(monotonicity of the Theorem 5 update)"
        )
    return alpha_vec


def split_by_class(
    result: FixedPointResult,
    rt_classes: Sequence[TrafficClass],
    counts: Sequence[int],
) -> MultiClassResult:
    """Per-class view of a fixed point over the stacked route system.

    ``counts[i]`` is the number of class-``i`` routes; the stacked system
    holds them in priority order, class ``i`` on servers ``[i*S, (i+1)*S)``.
    """
    d = result.delays.reshape(len(rt_classes), -1)
    bounds = np.cumsum([0, *counts])
    per_class = {}
    for i, cls in enumerate(rt_classes):
        per_class[cls.name] = ClassDelays(
            class_name=cls.name,
            deadline=float(cls.deadline),
            server_delays=d[i],
            route_delays=result.route_delays[bounds[i] : bounds[i + 1]],
        )
    violated = result.deadline_violated
    if result.converged:
        violated = violated or any(
            not c.meets_deadline for c in per_class.values()
        )
    return MultiClassResult(
        per_class=per_class,
        converged=result.converged,
        deadline_violated=violated,
        diverged=result.diverged,
        iterations=result.iterations,
        residual=result.residual,
    )


class Theorem5Map:
    """The Theorem 5 update on ``(C, S)`` views of the stacked vectors.

    ``touched[i, k]`` says whether some class-``i`` route traverses
    server ``k``; classes absent from a server are masked out of the
    interference sums there.  ``fan_in`` is the network's one ``N``.
    """

    def __init__(
        self,
        touched: np.ndarray,
        bursts: np.ndarray,
        rates: np.ndarray,
        alphas: np.ndarray,
        fan_in: int,
    ):
        self.touched = touched
        self.bursts = bursts[:, None]
        self.rates = rates[:, None]
        self.a_coef = (alphas / rates)[:, None]
        self.g_coef = alphas[:, None] / (
            rates[:, None] * (fan_in - alphas[:, None])
        )
        self.cum_incl = np.cumsum(alphas)           # sum_{l<=i} alpha_l
        self.cum_excl = self.cum_incl - alphas      # sum_{l<i} alpha_l

    def apply(self, y: np.ndarray, out: np.ndarray) -> None:
        touched = self.touched
        out = out.reshape(touched.shape)
        base = self.bursts + self.rates * y.reshape(touched.shape)
        a_term = np.where(touched, base * self.a_coef, 0.0)       # A_l
        g_masked = np.where(touched, base * self.g_coef, np.inf)  # g_l
        for i in range(touched.shape[0]):
            a_sum = a_term[: i + 1].sum(axis=0)
            g_min = g_masked[: i + 1].min(axis=0)
            # Servers where no class <= i is present: delay 0.
            present = np.isfinite(g_min)
            g_min = np.where(present, g_min, 0.0)
            num = a_sum + (self.cum_incl[i] - 1.0) * g_min
            d_i = np.where(present, num / (1.0 - self.cum_excl[i]), 0.0)
            # Class i's delay only matters where class i itself flows.
            out[i] = np.where(touched[i], np.maximum(d_i, 0.0), 0.0)
