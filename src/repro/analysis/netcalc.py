"""Flow-aware delay analysis (the paper's *general delay formula*).

Equations (2)-(3) — and (24) for multiple classes — compute worst-case
delays from the **actual** set of established flows: each flow's envelope is
propagated along its route (shifted by the upstream delays it accumulates,
Cruz's Theorem 2.1), aggregated per server and class, and the static-priority
delay is extracted.  The paper's point is that this analysis *needs run-time
flow information*, which makes IntServ-style admission control expensive;
it is implemented here as

* the correctness baseline the utilization-based bound must dominate
  (a configuration-time bound can never be smaller than the flow-aware
  delay of a compliant flow population), and
* the cost baseline for the scalability benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry, TrafficClass
from ..traffic.envelope import Envelope
from ..traffic.flows import FlowSpec

__all__ = ["FlowAwareResult", "flow_aware_delays", "static_priority_delay"]

_CEILING = 1e5  # seconds
_TOL = 1e-9
#: Iteration budget of the scalar static-priority fixed point (eq. 24).
_SP_ITERATIONS = 10_000
#: Convergence tolerance (seconds) and iteration budget of the outer
#: flow-aware iteration.
_FLOW_TOL = 1e-7
_FLOW_ITERATIONS = 1_000


def static_priority_delay(
    higher: Sequence[Envelope],
    own: Envelope,
    capacity: float,
) -> float:
    """Worst-case delay of one class under static priority (eq. 24).

    Solves the scalar fixed point
    ``d = (1/C) * max_I ( sum_l H_l(I + d) + F(I) - C*I )``
    where ``H_l`` are the higher-priority aggregate envelopes and ``F`` the
    class's own aggregate.  With no higher-priority traffic this reduces to
    the FIFO bound ``F.max_delay(C)`` (eq. 3).
    """
    if capacity <= 0:
        raise AnalysisError(f"capacity must be positive, got {capacity}")
    total_rate = own.long_term_rate + sum(h.long_term_rate for h in higher)
    if total_rate > capacity * (1 + 1e-9):
        raise AnalysisError(
            f"unstable server: aggregate rate {total_rate:.3e} exceeds "
            f"capacity {capacity:.3e}"
        )
    if not higher:
        return own.max_delay(capacity)
    d = 0.0
    for _ in range(_SP_ITERATIONS):
        shifted = sum((h.shift(d) for h in higher), Envelope.zero())
        d_next = (shifted + own).max_delay(capacity)
        if d_next > _CEILING:
            raise AnalysisError(
                "static-priority delay iteration diverged "
                f"(exceeded {_CEILING} s)"
            )
        if abs(d_next - d) <= _TOL:
            return d_next
        d = d_next
    raise AnalysisError(
        f"static-priority delay did not converge in {_SP_ITERATIONS} "
        "iterations"
    )


@dataclass
class FlowAwareResult:
    """Outcome of the flow-aware (IntServ-style) analysis.

    Attributes
    ----------
    server_delays:
        ``{class_name: float64[S]}`` worst-case queueing delay per server.
    flow_delays:
        ``{flow_id: float}`` end-to-end worst-case delay per flow.
    iterations:
        Outer propagation iterations until the network-wide fixed point.
    """

    server_delays: Dict[str, np.ndarray]
    flow_delays: Dict[Hashable, float]
    iterations: int
    converged: bool


def flow_aware_delays(
    graph: LinkServerGraph,
    flows: Sequence[FlowSpec],
    registry: ClassRegistry,
) -> FlowAwareResult:
    """Run the iterative flow-aware analysis over an explicit flow set.

    Every flow must carry an explicit ``route``.  Only real-time classes
    are analyzed (best-effort traffic cannot delay them under static
    priority).

    The outer iteration propagates per-flow upstream delays and recomputes
    aggregate envelopes until the per-server delays stabilize; like the
    utilization-based fixed point it is monotone from zero, so it converges
    to the least fixed point when one exists and reports
    ``converged=False`` on divergence.
    """
    rt_classes = registry.realtime_classes()
    rt_names = [c.name for c in rt_classes]
    for f in flows:
        if f.route is None:
            raise AnalysisError(f"flow {f.flow_id!r} has no route")
        if f.class_name not in registry:
            raise AnalysisError(
                f"flow {f.flow_id!r} references unknown class "
                f"{f.class_name!r}"
            )

    rt_flows = [f for f in flows if f.class_name in rt_names]
    # Pre-translate routes and source envelopes.
    flow_servers: List[np.ndarray] = []
    flow_env: List[Envelope] = []
    flow_cls_idx: List[int] = []
    for f in rt_flows:
        servers = graph.route_servers(f.route)
        cls = registry.get(f.class_name)
        flow_servers.append(servers)
        flow_env.append(cls.envelope(float(graph.capacities[servers[0]])))
        flow_cls_idx.append(rt_names.index(f.class_name))

    n_servers = graph.num_servers
    n_classes = len(rt_classes)
    d = np.zeros((n_classes, n_servers), dtype=np.float64)

    # Which (class, server) pairs carry traffic at all.
    active: Dict[Tuple[int, int], bool] = {}
    for ci, servers in zip(flow_cls_idx, flow_servers):
        for s in servers:
            active[(ci, int(s))] = True

    converged = False
    iterations = 0
    for iterations in range(1, _FLOW_ITERATIONS + 1):
        # 1. Aggregate shifted envelopes per (class, server, input link):
        #    eq. (2) sums flows per input link, and no input link can
        #    deliver faster than its wire, so each per-input aggregate is
        #    clamped at the input link's capacity before summing over
        #    links (the structure behind eq. (3)).
        per_input: Dict[Tuple[int, int, int], Envelope] = {}
        input_caps: Dict[Tuple[int, int, int], float] = {}
        for ci, servers, env in zip(flow_cls_idx, flow_servers, flow_env):
            upstream = 0.0
            prev = -1  # ingress (host side)
            for s in servers:
                s = int(s)
                shifted = env.shift(upstream)
                key = (ci, s, prev)
                agg = per_input.get(key)
                per_input[key] = shifted if agg is None else agg + shifted
                input_caps[key] = float(
                    graph.capacities[prev if prev >= 0 else s]
                )
                upstream += float(d[ci, s])
                prev = s
        aggregates: Dict[Tuple[int, int], Envelope] = {}
        for (ci, s, _prev), env_sum in per_input.items():
            clamped = env_sum.clamp_rate(input_caps[(ci, s, _prev)])
            agg = aggregates.get((ci, s))
            aggregates[(ci, s)] = (
                clamped if agg is None else agg + clamped
            )

        # 2. Per-server static-priority delays.
        d_next = np.zeros_like(d)
        for (ci, s) in active:
            own = aggregates.get((ci, s))
            if own is None:
                continue
            higher = [
                aggregates[(lj, s)]
                for lj in range(ci)
                if (lj, s) in aggregates
            ]
            d_next[ci, s] = static_priority_delay(
                higher, own, float(graph.capacities[s])
            )

        residual = float(np.abs(d_next - d).max(initial=0.0))
        d = d_next
        if float(d.max(initial=0.0)) > _CEILING:
            break
        if residual <= _FLOW_TOL:
            converged = True
            break

    flow_delays: Dict[Hashable, float] = {}
    for f, ci, servers in zip(rt_flows, flow_cls_idx, flow_servers):
        flow_delays[f.flow_id] = float(d[ci, servers].sum())
    server_delays = {name: d[i] for i, name in enumerate(rt_names)}
    return FlowAwareResult(
        server_delays=server_delays,
        flow_delays=flow_delays,
        iterations=iterations,
        converged=converged,
    )
