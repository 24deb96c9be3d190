"""Safe route selection (Section 5.2).

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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..analysis.beta import beta_coefficient
from ..analysis.delays import resolve_fan_in, theorem3_update
from ..analysis.fixedpoint import FixedPointWorkspace, solve_fixed_point
from ..analysis.routesystem import RouteSystem
from ..errors import RoutingError
from ..obs import OBS
from ..topology.network import Network
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import TrafficClass
from .candidates import CandidateGenerator
from .dependency import ServerDependencyGraph

__all__ = ["HeuristicOptions", "SelectionOutcome", "SafeRouteSelector"]

logger = logging.getLogger("repro.routing.heuristic")

Pair = Tuple[Hashable, Hashable]


@dataclass(frozen=True)
class HeuristicOptions:
    """Tuning knobs of the Section 5.2 heuristic.

    The defaults are the full paper heuristic; switching individual
    features off yields the ablation variants.

    Attributes
    ----------
    k_candidates / detour_slack:
        Candidate generation (k-shortest simple paths within
        ``detour_slack`` hops of shortest).
    order_by_distance:
        Heuristic (1): route farthest pairs first.  Off = given order.
    prefer_acyclic:
        Heuristic (2): prefer candidates keeping the dependency graph
        acyclic.
    min_delay_choice:
        Heuristic (3): among safe candidates pick minimum route delay.
        Off = first safe candidate (shortest).
    """

    k_candidates: int = 8
    detour_slack: int = 2
    order_by_distance: bool = True
    prefer_acyclic: bool = True
    min_delay_choice: bool = True

    def __post_init__(self):
        if self.k_candidates < 1:
            raise RoutingError("k_candidates must be >= 1")
        if self.detour_slack < 0:
            raise RoutingError("detour_slack must be >= 0")


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


class SafeRouteSelector:
    """Greedy safe route selection for a single real-time class.

    One selector instance caches topology-derived state (candidate routes,
    fan-in vectors) and can be reused across utilization levels — the
    binary search of Section 5.3 calls :meth:`select` repeatedly.
    """

    def __init__(
        self,
        network: Network,
        traffic_class: TrafficClass,
        *,
        options: HeuristicOptions = HeuristicOptions(),
        n_mode: str = "uniform",
        graph: Optional[LinkServerGraph] = None,
    ):
        if not traffic_class.is_realtime:
            raise RoutingError(
                f"class {traffic_class.name!r} has no finite deadline"
            )
        self.network = network
        self.traffic_class = traffic_class
        self.options = options
        self.graph = graph if graph is not None else LinkServerGraph(network)
        self.fan_in = resolve_fan_in(self.graph, n_mode)
        # Candidate routes depend only on (topology, k, slack), so every
        # selector over the same network shares one generator/cache.
        self._candidates = CandidateGenerator.shared(
            network,
            k=options.k_candidates,
            detour_slack=options.detour_slack,
        )
        self._distance_cache: Dict[Hashable, Dict[Hashable, int]] = {}
        # Reused across select() calls (the Section 5.3 binary search
        # probes the same pairs at many utilization levels).
        self._workspace = FixedPointWorkspace()
        self._last_system: Optional[RouteSystem] = None
        self._order_cache: Dict[Tuple[Pair, ...], List[Pair]] = {}
        self._server_cand_cache: Dict[Pair, List[np.ndarray]] = {}
        self._beta_cache: Dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------ #

    def _distance(self, src: Hashable, dst: Hashable) -> int:
        if src not in self._distance_cache:
            self._distance_cache[src] = nx.single_source_shortest_path_length(
                self.network.graph, src
            )
        return int(self._distance_cache[src][dst])

    def _ordered_pairs(self, pairs: Sequence[Pair]) -> List[Pair]:
        if not self.options.order_by_distance:
            return list(pairs)
        key = tuple(pairs)
        cached = self._order_cache.get(key)
        if cached is None:
            cached = sorted(
                pairs,
                key=lambda p: (-self._distance(*p), str(p[0]), str(p[1])),
            )
            self._order_cache[key] = cached
        return list(cached)

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
            servers = [self.graph.route_servers(c) for c in raw]
            self._server_cand_cache[pair] = servers
        return raw, servers

    def _beta_full(self, alpha: float) -> np.ndarray:
        """Unmasked Theorem 3 coefficients, cached per utilization level."""
        beta = self._beta_cache.get(alpha)
        if beta is None:
            beta = np.asarray(
                beta_coefficient(alpha, self.traffic_class.rate, self.fan_in)
            )
            self._beta_cache[alpha] = beta
        return beta

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
            # Incremental-path health: pushes/pops instead of rebuilds,
            # and how rarely the solver workspace had to regrow.
            reg.counter("repro_routing_route_pushes_total").inc(grow.pushes)
            reg.counter("repro_routing_route_pops_total").inc(grow.pops)
        reg.gauge("repro_routing_workspace_resizes").set(
            self._workspace.resizes
        )
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
        if len(set(pairs)) != len(pairs):
            raise RoutingError("duplicate source/destination pairs")
        cls = self.traffic_class
        ordered = self._ordered_pairs(pairs)

        # The route system holds the committed routes; each candidate
        # trial pushes one route, solves in the shared workspace, and
        # pops — no per-candidate rebuild of the committed set.
        grow = RouteSystem([], self.graph.num_servers)
        self._last_system = grow
        routes: Dict[Pair, List[Hashable]] = {}
        deps = ServerDependencyGraph()
        d_current = np.zeros(self.graph.num_servers, dtype=np.float64)
        candidates_evaluated = 0
        acyclic_hits = 0

        if fixed_routes:
            for path in fixed_routes:
                servers = self.graph.route_servers(path)
                grow.push(servers)
                deps.add_route(servers)
            update = theorem3_update(
                grow, cls.burst, cls.rate, alpha, self.fan_in,
                beta_full=self._beta_full(alpha),
            )
            base = solve_fixed_point(
                grow,
                update,
                deadlines=cls.deadline,
                workspace=self._workspace,
            )
            if not base.safe:
                # The fixed routes alone already violate: nothing to do.
                return SelectionOutcome(
                    success=False,
                    routes={},
                    failed_pair=ordered[0] if ordered else None,
                    server_delays=base.delays,
                    worst_route_delay=float(
                        base.route_delays.max(initial=0.0)
                    ),
                    candidates_evaluated=0,
                    acyclic_preferred_hits=0,
                )
            d_current = base.delays

        for pair in ordered:
            raw_candidates, server_cands = self._server_candidates(pair)
            # Heuristic (2): prefer candidates keeping dependencies acyclic.
            if self.options.prefer_acyclic:
                acyclic = [
                    i
                    for i, sc in enumerate(server_cands)
                    if not deps.creates_cycle(sc)
                ]
                groups = [acyclic] if acyclic else []
                acyclic_set = set(acyclic)
                rest = [
                    i
                    for i in range(len(server_cands))
                    if i not in acyclic_set
                ]
                if rest:
                    groups.append(rest)
                if acyclic:
                    acyclic_hits += 1
            else:
                groups = [list(range(len(server_cands)))]

            chosen = None  # (cand_idx, delays, route_delay)
            for group in groups:
                best: Optional[Tuple[int, np.ndarray, float]] = None
                for i in group:
                    candidates_evaluated += 1
                    trial = self._try_candidate(
                        grow, server_cands[i], alpha, d_current
                    )
                    if trial is None:
                        continue
                    delays, new_route_delay = trial
                    if best is None or new_route_delay < best[2]:
                        best = (i, delays, new_route_delay)
                    if not self.options.min_delay_choice:
                        break  # first safe candidate wins
                if best is not None:
                    chosen = best
                    break  # do not fall through to the cyclic group

            if chosen is None:
                return SelectionOutcome(
                    success=False,
                    routes=routes,
                    failed_pair=pair,
                    server_delays=d_current,
                    worst_route_delay=self._worst_route_delay(
                        grow, d_current
                    ),
                    candidates_evaluated=candidates_evaluated,
                    acyclic_preferred_hits=acyclic_hits,
                )

            idx, delays, _ = chosen
            grow.push(server_cands[idx])
            routes[pair] = list(raw_candidates[idx])
            deps.add_route(server_cands[idx])
            d_current = delays

        return SelectionOutcome(
            success=True,
            routes=routes,
            failed_pair=None,
            server_delays=d_current,
            worst_route_delay=self._worst_route_delay(grow, d_current),
            candidates_evaluated=candidates_evaluated,
            acyclic_preferred_hits=acyclic_hits,
        )

    # ------------------------------------------------------------------ #

    def _try_candidate(
        self,
        grow: RouteSystem,
        candidate: np.ndarray,
        alpha: float,
        warm: np.ndarray,
    ) -> Optional[Tuple[np.ndarray, float]]:
        """Fixed point with the candidate added; None if any deadline breaks.

        The candidate is pushed for the duration of the solve and popped
        before returning (the caller re-pushes the winning candidate).
        The warm start is sound: adding a route only enlarges the monotone
        update, so the previous solution lies below the new least fixed
        point.
        """
        # Note: an exact one-pass solver exists for acyclic systems
        # (repro.analysis.acyclic), but the warm-started vectorized
        # iteration converges in a handful of cheap NumPy steps here and
        # measures faster than the per-server Python pass, so the
        # iterative path stays the hot path.
        cls = self.traffic_class
        # Sound pre-solve rejection: the candidate's end-to-end delay at
        # the warm iterate only grows under the monotone update, so if it
        # already exceeds the deadline the solver's first-iteration check
        # would reject it anyway — skip the solve setup entirely.
        if float(warm[candidate].sum()) > cls.deadline:
            return None
        grow.push(candidate)
        try:
            update = theorem3_update(
                grow, cls.burst, cls.rate, alpha, self.fan_in,
                beta_full=self._beta_full(alpha),
            )
            result = solve_fixed_point(
                grow,
                update,
                initial=warm,
                deadlines=cls.deadline,
                workspace=self._workspace,
            )
        finally:
            grow.pop()
        if not result.safe:
            return None
        return result.delays, float(result.route_delays[-1])

    def _worst_route_delay(
        self, system: RouteSystem, delays: np.ndarray
    ) -> float:
        rd = system.route_delays(delays)
        return float(rd.max()) if rd.size else 0.0
