"""Safe route selection (Sections 5.2 and 5.4).

The problem — pick one route per source/destination pair such that every
class deadline holds under a given utilization assignment — is NP-hard
(reduction from Maximum Fixed-Length Disjoint Paths).  The paper's
polynomial heuristic is a no-backtrack greedy search with three levers,
each implemented and individually switchable here (the ablation bench
exercises all combinations):

1. **pair ordering** — route source/destination pairs in decreasing order
   of shortest-path distance (long, constrained pairs claim resources
   first);
2. **cycle avoidance** — among the candidate routes of a pair, prefer
   those that keep the link-server dependency graph acyclic (less queueing
   feedback, lower delays);
3. **min-delay choice** — among the preferred candidates that keep the
   configuration safe, commit the one whose own end-to-end delay bound is
   smallest.

If no candidate of some pair keeps all deadlines satisfiable, the search
declares failure (no backtracking), exactly as in Figure 3 of the paper.

The "variations" of Section 5.4 for several real-time classes are the
same loop.  It walks the classes in priority order (highest first, so a
class never depends on lower-priority routing) over one route system in
which class ``i`` owns servers ``[i*S, (i+1)*S)``; a candidate is safe
when the joint Theorem 5 fixed point keeps every class routed so far
within its deadline.  The dependency graph used for cycle avoidance is
shared across classes (feedback couples classes through the ``Y``
terms).  :class:`SafeRouteSelector` is the case of one class under the
Theorem 3 map.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.beta import beta_coefficient
from ..analysis.delays import theorem3_update
from ..analysis.fixedpoint import DelayMap, FixedPointResult, solve_fixed_point
from ..analysis.multiclass import (
    MultiClassResult,
    Theorem5Map,
    class_alphas,
    split_by_class,
)
from ..analysis.routesystem import RouteSystem
from ..errors import NoRouteError, RoutingError
from ..obs import OBS
from ..topology.network import Network
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry, TrafficClass
from .candidates import CandidateGenerator
from .dependency import ServerDependencyGraph

__all__ = [
    "HeuristicOptions",
    "SelectionOutcome",
    "SafeRouteSelector",
    "MultiClassSelectionOutcome",
    "MultiClassRouteSelector",
]

logger = logging.getLogger("repro.routing.heuristic")

Pair = Tuple[Hashable, Hashable]

#: Candidate generation: the ``K_CANDIDATES`` shortest simple paths within
#: ``DETOUR_SLACK`` hops of shortest.
K_CANDIDATES = 8
DETOUR_SLACK = 2


@dataclass(frozen=True)
class HeuristicOptions:
    """Tuning knobs of the Section 5.2 heuristic.

    The defaults are the full paper heuristic; switching individual
    features off yields the ablation variants.

    Attributes
    ----------
    order_by_distance:
        Heuristic (1): route farthest pairs first.  Off = given order.
    prefer_acyclic:
        Heuristic (2): prefer candidates keeping the dependency graph
        acyclic.
    min_delay_choice:
        Heuristic (3): among safe candidates pick minimum route delay.
        Off = first safe candidate (shortest).
    """

    order_by_distance: bool = True
    prefer_acyclic: bool = True
    min_delay_choice: bool = True


@dataclass
class SelectionOutcome:
    """Result of one safe-route-selection run.

    ``success`` mirrors the paper's SUCCESS/FAILURE verdict; on failure
    ``failed_pair`` names the first pair with no safe candidate and
    ``routes`` contains the pairs routed up to that point.
    """

    success: bool
    routes: Dict[Pair, List[Hashable]]
    failed_pair: Optional[Pair]
    server_delays: np.ndarray
    worst_route_delay: float
    candidates_evaluated: int
    acyclic_preferred_hits: int

    @property
    def num_routed(self) -> int:
        return len(self.routes)


@dataclass
class MultiClassSelectionOutcome:
    """Result of one multi-class safe route selection run."""

    success: bool
    routes: Dict[str, Dict[Pair, List[Hashable]]]
    failed_class: Optional[str]
    failed_pair: Optional[Pair]
    verification: Optional[MultiClassResult]
    candidates_evaluated: int

    @property
    def num_routed(self) -> int:
        return sum(len(r) for r in self.routes.values())


def check_pairs(pairs: Sequence[Pair]) -> None:
    """Each pair once, and between two different routers."""
    if len(set(pairs)) != len(pairs):
        raise RoutingError("duplicate source/destination pairs")
    for src, dst in pairs:
        if src == dst:
            raise RoutingError(
                f"pair {(src, dst)!r} has the same source and destination"
            )


def farthest_first(
    network: Network,
    pairs: Sequence[Pair],
    paths: Dict[Hashable, Dict[Hashable, List[Hashable]]],
) -> List[Pair]:
    """Heuristic (1): pairs by decreasing hop distance, ties by name.

    ``paths`` caches one :meth:`Network.shortest_paths_from` per source
    across calls.  A pair with an unknown or unreachable router raises
    :class:`~repro.errors.NoRouteError`.
    """

    def hops(pair: Pair) -> int:
        src, dst = pair
        if src not in paths:
            if src not in network:
                raise NoRouteError(src, dst)
            paths[src] = network.shortest_paths_from(src)
        if dst not in paths[src]:
            raise NoRouteError(src, dst)
        return len(paths[src][dst]) - 1

    return sorted(pairs, key=lambda p: (-hops(p), str(p[0]), str(p[1])))


@dataclass
class _Run:
    """State of one greedy pass; class ``i`` owns servers ``[i*S, (i+1)*S)``."""

    system: RouteSystem
    #: The last accepted fixed point: every trial's warm start.
    delays: np.ndarray
    #: Committed routes per class name, in priority order.
    routes: Dict[str, Dict[Pair, List[Hashable]]]
    deps: ServerDependencyGraph = field(default_factory=ServerDependencyGraph)
    #: The solve that produced ``delays`` (None before the first).
    solved: Optional[FixedPointResult] = None
    #: Set on failure (``failed_pair`` is None if committed routes fail).
    failed_class: Optional[str] = None
    failed_pair: Optional[Pair] = None
    candidates_evaluated: int = 0
    acyclic_hits: int = 0


class _GreedySelector:
    """The greedy loop and the topology-derived state it reuses.

    One instance caches candidate routes, their link-server form and the
    shortest paths that order pairs, and can be reused across utilization levels — the binary
    search of Section 5.3 calls ``select`` repeatedly.
    """

    def __init__(
        self,
        network: Network,
        options: HeuristicOptions,
    ):
        self.network = network
        self.options = options
        self.graph = LinkServerGraph(network)
        self.fan_in = self.graph.uniform_fan_in()
        # Candidate routes depend only on the topology, so every selector
        # over the same network shares one generator/cache.
        self._candidates = CandidateGenerator.shared(
            network, k=K_CANDIDATES, detour_slack=DETOUR_SLACK
        )
        self._paths: Dict[Hashable, Dict[Hashable, List[Hashable]]] = {}
        self._last_system: Optional[RouteSystem] = None
        self._server_cand_cache: Dict[Pair, List[np.ndarray]] = {}

    def _ordered(self, pairs: Sequence[Pair]) -> List[Pair]:
        """``pairs`` checked, in the order heuristic (1) routes them."""
        check_pairs(pairs)
        if not self.options.order_by_distance:
            return list(pairs)
        return farthest_first(self.network, pairs, self._paths)

    def _server_candidates(
        self, pair: Pair
    ) -> Tuple[List[List[Hashable]], List[np.ndarray]]:
        """Router-level candidates and their link-server index routes.

        The conversion is pure topology, so it is cached per pair and
        reused by every probe of the binary search.
        """
        raw = self._candidates(*pair)
        servers = self._server_cand_cache.get(pair)
        if servers is None:
            servers = [np.array(self.graph.route_servers(c), dtype=np.int64) for c in raw]
            self._server_cand_cache[pair] = servers
        return raw, servers

    def _greedy(
        self,
        classes: Sequence[TrafficClass],
        demand: Sequence[Sequence[Pair]],
        update: Callable[[RouteSystem], DelayMap],
        committed: Sequence[np.ndarray] = (),
    ) -> _Run:
        """Route ``demand[i]`` (ordered pairs of ``classes[i]``) in class order.

        ``update(system)`` gives the delay map for the system's current
        routes.  ``committed`` routes (link-server indices, class 0) are
        in every safety check but are not reported.
        """
        n_servers = self.graph.num_servers
        size = len(classes) * n_servers
        run = _Run(
            system=RouteSystem([], size),
            delays=np.zeros(size, dtype=np.float64),
            routes={c.name: {} for c in classes},
        )
        self._last_system = run.system
        counts = [len(pairs) for pairs in demand]
        counts[0] += len(committed)
        deadlines = np.repeat([c.deadline for c in classes], counts)
        if committed:
            for servers in committed:
                run.system.push(servers)
                run.deps.add_route(servers)
            base = solve_fixed_point(
                run.system,
                update(run.system),
                deadlines=deadlines[: len(committed)],
            )
            run.delays, run.solved = base.delays, base
            if not base.safe:  # the committed routes alone violate
                run.failed_class = classes[0].name
                run.failed_pair = demand[0][0] if demand[0] else None
                return run

        for ci, (cls, pairs) in enumerate(zip(classes, demand)):
            offset = ci * n_servers
            for pair in pairs:
                raw, servers = self._server_candidates(pair)
                stacked = [s + offset for s in servers] if offset else servers
                everything = range(len(servers))
                groups = [everything]
                # Heuristic (2): prefer candidates keeping dependencies
                # acyclic.
                if self.options.prefer_acyclic:
                    acyclic = [
                        i for i in everything
                        if not run.deps.creates_cycle(servers[i])
                    ]
                    rest = [i for i in everything if i not in acyclic]
                    groups = [g for g in (acyclic, rest) if g]
                    run.acyclic_hits += bool(acyclic)

                best: Optional[Tuple[int, FixedPointResult, float]] = None
                for group in groups:
                    for i in group:
                        run.candidates_evaluated += 1
                        result = self._try_candidate(
                            run, stacked[i], update, deadlines, cls.deadline
                        )
                        if result is None:
                            continue
                        route_delay = float(result.route_delays[-1])
                        if best is None or route_delay < best[2]:
                            best = (i, result, route_delay)
                        if not self.options.min_delay_choice:
                            break  # first safe candidate wins
                    if best is not None:
                        break  # do not fall through to the cyclic group

                if best is None:
                    run.failed_class, run.failed_pair = cls.name, pair
                    return run
                idx, result, _ = best
                run.system.push(stacked[idx])
                run.routes[cls.name][pair] = list(raw[idx])
                run.deps.add_route(servers[idx])
                run.delays, run.solved = result.delays, result
        return run

    def _try_candidate(
        self,
        run: _Run,
        candidate: np.ndarray,
        update: Callable[[RouteSystem], DelayMap],
        deadlines: np.ndarray,
        deadline: float,
    ) -> Optional[FixedPointResult]:
        """Fixed point with the candidate added; None if any deadline breaks.

        The candidate is pushed for the duration of the solve and popped
        before returning (the caller re-pushes the winning candidate).
        The warm start is sound: adding a route only enlarges the monotone
        update, so the previous solution lies below the new least fixed
        point.
        """
        # Note: the start-up solve (repro.analysis.theorem3) settles the
        # servers in dependency order, one pass where the routes are
        # acyclic, but it rebuilds that order for every route set.  Each
        # candidate here is one push on a route system whose warm-started
        # numpy iteration converges in a handful of steps, so the search
        # keeps it until the dependency order is maintained across
        # pushes (ROADMAP item 22).
        warm = run.delays
        # Sound pre-solve rejection: the candidate's end-to-end delay at
        # the warm iterate only grows under the monotone update, so if it
        # already exceeds the deadline the solver's first-iteration check
        # would reject it anyway — skip the solve setup entirely.
        if float(warm[candidate].sum()) > deadline:
            return None
        system = run.system
        system.push(candidate)
        try:
            result = solve_fixed_point(
                system,
                update(system),
                initial=warm,
                deadlines=deadlines[: system.num_routes],
            )
        finally:
            system.pop()
        return result if result.safe else None


class SafeRouteSelector(_GreedySelector):
    """Greedy safe route selection for a single real-time class."""

    def __init__(
        self,
        network: Network,
        traffic_class: TrafficClass,
        *,
        options: HeuristicOptions = HeuristicOptions(),
    ):
        if not traffic_class.is_realtime:
            raise RoutingError(
                f"class {traffic_class.name!r} has no finite deadline"
            )
        super().__init__(network, options)
        self.traffic_class = traffic_class

    # ------------------------------------------------------------------ #

    def select(
        self,
        pairs: Sequence[Pair],
        alpha: float,
        *,
        fixed_routes: Optional[Sequence[Sequence[Hashable]]] = None,
    ) -> SelectionOutcome:
        """Run the greedy search for one utilization level.

        Parameters
        ----------
        pairs:
            Source/destination pairs to route (each exactly once).
        alpha:
            Bandwidth fraction of the real-time class.
        fixed_routes:
            Router-level paths committed *before* the search (e.g. the
            surviving routes during link-failure repair).  They count in
            every safety check and in the dependency graph, but are not
            reported in ``routes``.
        """
        if not OBS.enabled:
            return self._select_impl(pairs, alpha, fixed_routes=fixed_routes)
        with OBS.span(
            "routing.select",
            pairs=len(pairs),
            alpha=alpha,
            cls=self.traffic_class.name,
        ) as sp:
            outcome = self._select_impl(
                pairs, alpha, fixed_routes=fixed_routes
            )
            sp.set(
                success=outcome.success,
                candidates=outcome.candidates_evaluated,
            )
        reg = OBS.registry
        reg.counter(
            "repro_routing_selections_total",
            outcome="success" if outcome.success else "failure",
        ).inc()
        reg.counter("repro_routing_candidates_evaluated_total").inc(
            outcome.candidates_evaluated
        )
        reg.counter("repro_routing_pairs_routed_total").inc(
            outcome.num_routed
        )
        reg.counter("repro_routing_acyclic_preferred_total").inc(
            outcome.acyclic_preferred_hits
        )
        grow = self._last_system
        if grow is not None:
            # Incremental-path health: pushes/pops instead of rebuilds.
            reg.counter("repro_routing_route_pushes_total").inc(grow.pushes)
            reg.counter("repro_routing_route_pops_total").inc(grow.pops)
        if not outcome.success:
            logger.debug(
                "route selection failed at pair %r (alpha=%g, "
                "%d pairs routed, %d candidates evaluated)",
                outcome.failed_pair,
                alpha,
                outcome.num_routed,
                outcome.candidates_evaluated,
            )
        return outcome

    def _select_impl(
        self,
        pairs: Sequence[Pair],
        alpha: float,
        *,
        fixed_routes: Optional[Sequence[Sequence[Hashable]]] = None,
    ) -> SelectionOutcome:
        cls = self.traffic_class
        # One beta per selection: every candidate's map shares it.
        beta = beta_coefficient(alpha, cls.rate, self.fan_in)

        def update(system: RouteSystem) -> DelayMap:
            return theorem3_update(system, cls.burst, cls.rate, beta)

        run = self._greedy(
            [cls],
            [self._ordered(pairs)],
            update,
            [np.array(self.graph.route_servers(p), dtype=np.int64) for p in fixed_routes or ()],
        )
        worst = run.system.route_delays(run.delays)
        return SelectionOutcome(
            success=run.failed_class is None,
            routes=run.routes[cls.name],
            failed_pair=run.failed_pair,
            server_delays=run.delays,
            worst_route_delay=float(worst.max()) if worst.size else 0.0,
            candidates_evaluated=run.candidates_evaluated,
            acyclic_preferred_hits=run.acyclic_hits,
        )


class MultiClassRouteSelector(_GreedySelector):
    """Greedy joint-safety route selection for several real-time classes.

    The Section 5.2 loop over the registry's real-time classes in
    priority order, judging each candidate by the joint Theorem 5 fixed
    point of every class routed so far.
    """

    def __init__(
        self,
        network: Network,
        registry: ClassRegistry,
    ):
        if not registry.realtime_classes():
            raise RoutingError("registry has no real-time class to route")
        super().__init__(network, HeuristicOptions())
        self.registry = registry

    def select(
        self,
        pairs_by_class: Mapping[str, Sequence[Pair]],
        alphas: Mapping[str, float],
    ) -> MultiClassSelectionOutcome:
        """Route every class's pairs under the joint Theorem 5 bound.

        Parameters
        ----------
        pairs_by_class:
            Source/destination demand per real-time class name.  Classes
            absent from the mapping get no routes.
        alphas:
            Per-class utilization assignment (must cover every real-time
            class in the registry).
        """
        rt_classes = self.registry.realtime_classes()  # priority order
        rt_names = [c.name for c in rt_classes]
        for name in pairs_by_class:
            if name not in rt_names:
                raise RoutingError(
                    f"class {name!r} is not a registered real-time class"
                )
        alpha_vec = class_alphas(rt_classes, alphas, self.fan_in)
        demand = [
            self._ordered(list(pairs_by_class.get(name, ())))
            for name in rt_names
        ]
        shape = (len(rt_classes), self.graph.num_servers)
        bursts = np.asarray([c.burst for c in rt_classes])
        rates = np.asarray([c.rate for c in rt_classes])

        def update(system: RouteSystem) -> DelayMap:
            return Theorem5Map(
                system.touched_servers.reshape(shape),
                bursts, rates, alpha_vec, self.fan_in,
            )

        run = self._greedy(rt_classes, demand, update)
        verification = None
        if run.solved is not None:
            counts = [len(routes) for routes in run.routes.values()]
            verification = split_by_class(run.solved, rt_classes, counts)
        return MultiClassSelectionOutcome(
            success=run.failed_class is None,
            routes=run.routes,
            failed_class=run.failed_class,
            failed_pair=run.failed_pair,
            verification=verification,
            candidates_evaluated=run.candidates_evaluated,
        )
