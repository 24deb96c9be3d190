"""Adversarial ``(w, b)``-bounded workload generation.

The Hypothesis suites sample arrival processes randomly; adversaries do
not.  Following the bounded-injection model of Andrews et al. ("Source
Routing and Scheduling in Packet Networks"), an adversary here may emit
at most ``rate * tau + burst`` arrivals in *any* half-open window of
length ``tau`` — and the generator in this module is the **extremal**
such adversary: a greedy token bucket that is flush against the bound
at every instant.

Three tactics are layered on top of the envelope:

* **Burst packing** — every burst of arrivals shares one timestamp, so
  batch-mode replay (:func:`~repro.workload.loadgen.drive`) lands the
  whole burst in a single epoch and the batch kernel sees the maximum
  number of intra-batch slot collisions the envelope permits.
* **Hot-edge targeting** — arrivals are drawn only from source/
  destination pairs whose routes cross the most-contended link servers
  (:func:`hot_servers`), concentrating demand instead of spreading it.
* **Thundering-herd releases** — a configurable fraction of admitted
  flows departs *exactly* at the next burst instant.  The replay tie
  break (departures before arrivals at equal times) frees those slots
  at the very moment the next burst fights over them, maximizing
  admit/release interleaving stress.

Traces are ordinary :class:`~repro.workload.trace.TraceEvent` streams,
so the same adversarial workload drives the sequential loop, the batch
kernel, a slot shard, the service coalescer and the cluster router
unchanged.

Construction-time guard: :func:`adversarial_events` validates its own
output via :func:`validate_adversarial_events` before returning — a
generator bug can never emit a trace that releases a flow that never
arrived, releases one twice, or violates the ``(w, b)`` envelope (the
same validate-at-construction contract as
:func:`repro.faults.random_fault_schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TrafficError
from ..topology.servergraph import LinkServerGraph
from ..traffic.flows import FlowSpec
from .trace import TraceEvent, merge_events

__all__ = [
    "AdversaryModel",
    "adversarial_events",
    "hot_servers",
    "validate_adversarial_events",
]

Pair = Tuple[Hashable, Hashable]

#: Slack for floating-point drift when checking the (w, b) envelope —
#: the greedy generator sits exactly on the bound.
_ENVELOPE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class AdversaryModel:
    """A ``(w, b)``-bounded injection envelope.

    In any half-open window of length ``tau`` the adversary may emit at
    most ``rate * tau + burst`` arrivals (token bucket: sustained rate
    ``rate``/s, bucket depth ``burst``).  ``window`` is the reference
    window length used when reporting the bound, not an extra degree of
    freedom — the envelope constrains *every* window length.
    """

    rate: float = 64.0
    burst: int = 16
    window: float = 1.0

    def __post_init__(self) -> None:
        if not (self.rate > 0.0):
            raise TrafficError(
                f"adversary rate must be > 0, got {self.rate}"
            )
        if self.burst < 1:
            raise TrafficError(
                f"adversary burst must be >= 1, got {self.burst}"
            )
        if not (self.window > 0.0):
            raise TrafficError(
                f"adversary window must be > 0, got {self.window}"
            )

    def arrivals_allowed(self, tau: float) -> float:
        """Upper bound on arrivals in any window of length ``tau``."""
        return self.rate * tau + self.burst


def hot_servers(
    graph: LinkServerGraph,
    routes: Dict[Pair, Sequence[Hashable]],
    top: int = 1,
) -> List[int]:
    """The ``top`` most route-crossed link servers (hottest first).

    Ranking is by configured route crossings — the static analogue of
    :func:`repro.faults.most_loaded_link` — with index order breaking
    ties, so the result is deterministic for a given route table.
    """
    if top < 1:
        raise TrafficError(f"top must be >= 1, got {top}")
    if not routes:
        raise TrafficError("hot_servers needs a non-empty route table")
    crossings = np.zeros(graph.num_servers, dtype=np.int64)
    for path in routes.values():
        np.add.at(crossings, graph.route_servers(path), 1)
    order = np.lexsort((np.arange(graph.num_servers), -crossings))
    return [int(s) for s in order[:top]]


def adversarial_events(
    graph: LinkServerGraph,
    routes: Dict[Pair, Sequence[Hashable]],
    class_name: str,
    *,
    num_flows: int,
    model: Optional[AdversaryModel] = None,
    seed: int = 0,
    hot_edges: int = 1,
    churn_fraction: float = 0.5,
    id_prefix: str = "adv",
) -> List[TraceEvent]:
    """Generate an extremal adversarial event stream.

    Returns a merged, time-sorted arrival/departure stream (ties broken
    departures-first, exactly as :func:`~repro.workload.loadgen.\
schedule_events` orders them) with flow ids ``{id_prefix}{seed}_{i}``.

    ``churn_fraction`` of the flows depart at the next burst instant
    after their arrival (thundering-herd contention); the rest pin
    their slots until a LIFO drain after the attack ends.  The stream
    is validated against ``model`` before being returned.
    """
    model = model or AdversaryModel()
    if num_flows < 1:
        raise TrafficError(f"num_flows must be >= 1, got {num_flows}")
    if not 0.0 <= churn_fraction <= 1.0:
        raise TrafficError(
            f"churn_fraction must be in [0, 1], got {churn_fraction}"
        )
    targets = set(hot_servers(graph, routes, top=hot_edges))
    attack_pairs = [
        pair
        for pair in sorted(routes, key=repr)
        if targets.intersection(
            graph.route_servers(routes[pair]).tolist()
        )
    ]
    if not attack_pairs:  # defensive: hot servers come from the routes
        attack_pairs = sorted(routes, key=repr)
    rng = np.random.default_rng(seed)

    # Greedy token bucket: fire a maximal burst, then wait exactly as
    # long as the envelope requires before the next one.  The emitted
    # arrival count is flush against rate * t + burst at every instant.
    arrival_times: List[float] = []
    burst_instants: List[float] = []
    level = float(model.burst)
    t = 0.0
    emitted = 0
    while emitted < num_flows:
        take = min(int(level + _ENVELOPE_TOLERANCE), num_flows - emitted)
        if take >= 1:
            burst_instants.append(t)
            arrival_times.extend([t] * take)
            level -= take
            emitted += take
        refill = float(min(model.burst, num_flows - emitted)) or 1.0
        dt = max(refill - level, 1.0) / model.rate
        t += dt
        level = min(float(model.burst), level + dt * model.rate)
    horizon = t + model.window

    # Hot-pair assignment: rotate through the attack pairs with a
    # per-burst random offset so successive bursts shift which hot
    # routes collide, while staying fully seed-deterministic.
    offsets = rng.integers(0, len(attack_pairs), size=len(burst_instants))
    churn_draws = rng.random(num_flows) < churn_fraction

    events: List[TraceEvent] = []
    burst_idx = -1
    prev_time: Optional[float] = None
    cursor = 0
    for i, t_arr in enumerate(arrival_times):
        if t_arr != prev_time:
            burst_idx += 1
            prev_time = t_arr
            cursor = int(offsets[burst_idx])
        src, dst = attack_pairs[cursor % len(attack_pairs)]
        cursor += 1
        fid = f"{id_prefix}{seed}_{i}"
        events.append(
            TraceEvent.arrival(t_arr, FlowSpec(fid, class_name, src, dst))
        )
        has_next = burst_idx + 1 < len(burst_instants)
        if churn_draws[i] and has_next:
            # Free the slot at the exact instant the next burst lands;
            # the departures-first tie break hands it to the herd.
            t_dep = burst_instants[burst_idx + 1]
        else:
            # Pin until after the attack, draining LIFO.
            t_dep = horizon + (num_flows - i) * 1e-3
        events.append(TraceEvent.departure(t_dep, fid))
    stream = merge_events(events)
    validate_adversarial_events(stream, model)
    return stream


def validate_adversarial_events(
    events: Sequence[TraceEvent],
    model: Optional[AdversaryModel] = None,
) -> None:
    """Reject malformed adversarial streams at construction time.

    Checks, in order: events are time-sorted; no flow arrives twice; no
    departure references a flow that never arrived (the trace-level
    analogue of "never release a never-admitted flow" — admission
    outcomes don't exist until replay, so the strongest constructible
    guard is that every released id has a *prior arrival*); no flow
    departs twice or before it arrives.  With ``model`` given, the
    arrival process is additionally checked against the ``(w, b)``
    envelope via an O(n) leaky bucket (equivalent to bounding every
    window).  Raises :class:`~repro.errors.TrafficError` on the first
    violation.
    """
    arrived: Dict[Hashable, float] = {}
    departed = set()
    last_time = float("-inf")
    arrival_times: List[float] = []
    for event in events:
        if event.time < last_time:
            raise TrafficError(
                f"adversarial trace is not time-sorted at "
                f"flow {event.flow_id!r} (t={event.time})"
            )
        last_time = event.time
        if event.kind == "arrival":
            if event.flow_id in arrived:
                raise TrafficError(
                    f"adversarial trace re-arrives flow "
                    f"{event.flow_id!r}"
                )
            arrived[event.flow_id] = event.time
            arrival_times.append(event.time)
        else:
            if event.flow_id not in arrived:
                raise TrafficError(
                    f"adversarial trace releases flow "
                    f"{event.flow_id!r} which never arrived"
                )
            if event.flow_id in departed:
                raise TrafficError(
                    f"adversarial trace releases flow "
                    f"{event.flow_id!r} twice"
                )
            if event.time < arrived[event.flow_id]:
                raise TrafficError(
                    f"flow {event.flow_id!r} departs before it arrives"
                )
            departed.add(event.flow_id)
    if model is None or not arrival_times:
        return
    level = 0.0
    prev = arrival_times[0]
    for t_arr in arrival_times:
        level = max(0.0, level - (t_arr - prev) * model.rate)
        prev = t_arr
        level += 1.0
        if level > model.burst + _ENVELOPE_TOLERANCE:
            raise TrafficError(
                f"arrivals at t={t_arr} exceed the (w, b) envelope "
                f"(rate={model.rate}/s, burst={model.burst})"
            )
