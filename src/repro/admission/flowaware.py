"""Flow-aware (IntServ-style) admission control — the scalability baseline.

This controller keeps per-flow state and, on every admission attempt,
re-runs the flow-aware delay analysis (:mod:`repro.analysis.netcalc`) over
the tentative flow population.  The flow is admitted iff every established
flow *and* the newcomer still meet their class deadlines.

It is deliberately the expensive architecture the paper argues against:
decision cost grows with the number of established flows, and the
controller must know every flow's envelope and route.  It serves as

* a correctness oracle (it admits with exact worst-case analysis, so it
  never rejects a population the utilization-based bound admits — see the
  comparison tests), and
* the cost baseline in the scalability benchmarks.

``admit_batch`` / ``release_batch`` are supported through the base
class's sequential fallback: each flow-aware decision re-analyzes the
population *including earlier batch admissions*, so there is no
data-parallel shortcut — which is precisely the scalability contrast
the batch benchmarks quantify against the utilization controllers.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Hashable, List, Mapping, Sequence, Tuple

from ..analysis.netcalc import flow_aware_delays
from ..errors import AnalysisError
from ..obs import DEFAULT_ITERATION_BUCKETS, OBS
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry
from ..traffic.flows import FlowSpec
from .base import AdmissionController, Pair

__all__ = ["FlowAwareAdmissionController"]


class FlowAwareAdmissionController(AdmissionController):
    """Per-flow admission control via exact worst-case delay recomputation."""

    def __init__(
        self,
        graph: LinkServerGraph,
        registry: ClassRegistry,
        route_map: Mapping[Pair, Sequence[Hashable]],
    ):
        super().__init__(graph, registry, route_map)

    def _pinned(self, flow: FlowSpec) -> FlowSpec:
        """The flow with its route made explicit (analysis needs routes)."""
        if flow.route is not None:
            return flow
        return replace(flow, route=tuple(self.resolve_route(flow)))

    def _admit_impl(
        self, flow: FlowSpec, route: Sequence[Hashable]
    ) -> Tuple[bool, str]:
        ok, reason = self._decide(flow)
        if ok:
            self._establish(flow, self.servers_for(flow, route))
        return ok, reason

    def _decide(self, flow: FlowSpec) -> Tuple[bool, str]:
        cls = self.registry.get(flow.class_name)
        if not cls.is_realtime:
            return True, ""
        tentative = [self._pinned(f) for f in self.established_flows
                     if self.registry.get(f.class_name).is_realtime]
        tentative.append(self._pinned(flow))
        if OBS.enabled:
            OBS.registry.counter(
                "repro_flowaware_recomputations_total"
            ).inc()
            OBS.registry.histogram(
                "repro_flowaware_population",
                buckets=DEFAULT_ITERATION_BUCKETS,
            ).observe(len(tentative))
        try:
            with OBS.span(
                "flowaware.analysis", population=len(tentative)
            ):
                result = flow_aware_delays(
                    self.graph, tentative, self.registry
                )
        except AnalysisError as exc:
            return False, f"analysis rejected the population: {exc}"
        if not result.converged:
            return False, "flow-aware analysis diverged (overload)"
        for f in tentative:
            deadline = self.registry.get(f.class_name).deadline
            if result.flow_delays[f.flow_id] > deadline:
                return False, (
                    f"flow {f.flow_id!r} would miss its deadline "
                    f"({result.flow_delays[f.flow_id] * 1e3:.2f} ms "
                    f"> {deadline * 1e3:.2f} ms)"
                )
        return True, ""

    def _release_impl(self, code: int, servers: Sequence[int]) -> None:
        # All state is the established-flow set kept by the base class.
        return None
