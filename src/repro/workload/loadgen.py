"""Drive an admission controller with a workload event stream.

:func:`schedule_events` turns an :class:`~repro.workload.arrivals.\
ArrivalSchedule` into the merged arrival/departure event stream and
:func:`poisson_timeline` draws one flow by flow (the schedules of the
dynamic experiments and the chaos harness);
:func:`drive` replays events against any
:class:`~repro.admission.base.AdmissionController` through the batch
engine (:func:`repro.admission.statistics.replay_schedule` is the
strictly sequential replay).

It processes the stream in **epochs** of up to ``batch_size``
arrivals: departures falling inside an epoch are released before
(flows admitted in earlier epochs) or after (flows admitted in this
epoch) the epoch's single ``admit_batch`` call.  Within an epoch the
relative order of admissions and releases therefore differs from the
sequential replay — that reordering is the price of batching and is
why the differential *correctness* suite drives ``admit_batch``
directly rather than through this driver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..admission.base import AdmissionController, AdmissionDecision
from ..errors import TrafficError
from ..topology.network import Network
from ..traffic.flows import PRIORITIES, FlowSpec
from .arrivals import ArrivalSchedule
from .trace import TraceEvent, merge_events

__all__ = [
    "LoadgenResult",
    "assign_priorities",
    "drive",
    "parse_priority_mix",
    "poisson_flow_schedule",
    "poisson_timeline",
    "schedule_events",
    "tally_priorities",
]

Pair = Tuple[Hashable, Hashable]


def schedule_events(
    schedule: ArrivalSchedule,
    pairs: Sequence[Pair],
    class_name: str,
) -> List[TraceEvent]:
    """Merged, time-sorted arrival + departure events of a schedule.

    Flow ids are ``w{seed}_{i}`` for arrival ``i``; ties break
    as :func:`~repro.workload.trace.merge_events` orders them.
    """
    if schedule.num_flows and not pairs:
        raise TrafficError("schedule references an empty pair list")
    events: List[TraceEvent] = []
    departures = schedule.departure_times()
    for i in range(schedule.num_flows):
        src, dst = pairs[int(schedule.pair_indices[i]) % len(pairs)]
        fid = f"w{schedule.seed}_{i}"
        events.append(TraceEvent.arrival(
            float(schedule.times[i]), FlowSpec(fid, class_name, src, dst)
        ))
        events.append(TraceEvent.departure(float(departures[i]), fid))
    return merge_events(events)


def poisson_timeline(
    draw_pair: Callable[[np.random.Generator], Pair],
    class_name: str,
    *,
    arrival_rate: float,
    mean_holding: float,
    horizon: float,
    seed: int,
    id_prefix: str,
) -> List[TraceEvent]:
    """Poisson arrivals with exponential holding times, flow by flow.

    Flows ``{id_prefix}{seed}_{k}`` arrive at ``arrival_rate`` per
    second between the pair ``draw_pair(rng)`` returns and hold for
    Exp(``mean_holding``) seconds; departures past ``horizon`` are kept
    so every arrival has one.  Per flow the generator is consulted in
    the fixed order gap, pair, holding time.
    """
    if arrival_rate <= 0 or mean_holding <= 0 or horizon <= 0:
        raise TrafficError(
            "arrival_rate, mean_holding and horizon must be positive"
        )
    rng = np.random.default_rng(seed)
    events: List[TraceEvent] = []
    t = 0.0
    k = 0
    while True:
        t += float(rng.exponential(1.0 / arrival_rate))
        if t >= horizon:
            break
        src, dst = draw_pair(rng)
        fid = f"{id_prefix}{seed}_{k}"
        hold = float(rng.exponential(mean_holding))
        events.append(
            TraceEvent.arrival(t, FlowSpec(fid, class_name, src, dst))
        )
        events.append(TraceEvent.departure(t + hold, fid))
        k += 1
    return merge_events(events)


def poisson_flow_schedule(
    network: Network,
    class_name: str,
    arrival_rate: float,
    mean_holding: float,
    horizon: float,
    seed: int,
) -> List[TraceEvent]:
    """:func:`poisson_timeline` between uniformly random distinct edge
    routers of ``network`` (flow ids ``p{seed}_{k}``)."""
    edges = network.edge_routers()
    if len(edges) < 2:
        raise TrafficError("need at least two edge routers")
    return poisson_timeline(
        lambda rng: tuple(
            edges[int(i)]
            for i in rng.choice(len(edges), size=2, replace=False)
        ),
        class_name, arrival_rate=arrival_rate, mean_holding=mean_holding,
        horizon=horizon, seed=seed, id_prefix="p",
    )


def parse_priority_mix(spec: str) -> Dict[str, float]:
    """Parse ``"hard_rt=0.2,soft_rt=0.3,elastic=0.5"`` into weights.

    Weights must be non-negative with a positive sum; they are used
    *unnormalized* by :func:`assign_priorities` (NumPy normalizes).
    """
    mix: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in PRIORITIES:
            raise TrafficError(
                f"unknown priority {name!r} in mix (expected one of "
                f"{PRIORITIES})"
            )
        try:
            weight = float(value)
        except ValueError:
            raise TrafficError(
                f"bad weight for priority {name!r}: {value!r}"
            ) from None
        if weight < 0:
            raise TrafficError(
                f"priority weight must be >= 0, got {name}={weight}"
            )
        mix[name] = weight
    if not mix or not sum(mix.values()) > 0:
        raise TrafficError(
            f"priority mix needs a positive total weight, got {spec!r}"
        )
    return mix


def assign_priorities(
    events: Sequence[TraceEvent],
    mix: Dict[str, float],
    *,
    seed: int = 0,
) -> List[TraceEvent]:
    """Stamp arrival events with priorities drawn from a weighted mix.

    Deterministic in ``(events, mix, seed)``: priorities are drawn one
    per *arrival* (in event order) from ``numpy``'s seeded generator;
    departures are passed through untouched.  Returns new events —
    inputs are never mutated.
    """
    names = sorted(mix)
    weights = np.asarray([mix[n] for n in names], dtype=np.float64)
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    out: List[TraceEvent] = []
    for event in events:
        if event.kind != "arrival":
            out.append(event)
            continue
        choice = names[int(rng.choice(len(names), p=weights))]
        out.append(replace(event, priority=choice))
    return out


@dataclass(frozen=True)
class LoadgenResult:
    """Outcome summary of one :func:`drive` run, or of one wire replay
    (:func:`repro.service.replay.replay_events`)."""

    batch_size: int
    num_arrivals: int
    num_admitted: int
    num_rejected: int
    num_released: int
    elapsed_seconds: float
    #: ``{priority: {"arrivals": n, "admitted": n, "rejected": n}}``,
    #: present only when the driven events carried priorities
    #: (priority-less runs keep the historical result shape).
    per_priority: Optional[Dict[str, Dict[str, int]]] = None
    #: Departures of flows that were not established when they left.
    num_skipped: int = 0
    #: Ops a server answered with an error other than a rejection.
    num_errors: int = 0
    #: Client-observed seconds of each round trip, in send order
    #: (none in process).
    frame_latencies: Tuple[float, ...] = ()

    @property
    def frames(self) -> int:
        return len(self.frame_latencies)

    @property
    def total_ops(self) -> int:
        """Admission attempts plus releases performed."""
        return self.num_arrivals + self.num_released

    @property
    def ops_per_second(self) -> float:
        """0.0 for a run too short for the clock to see."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_ops / self.elapsed_seconds

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank frame-latency percentile in seconds (0.0 when
        no frame was sent)."""
        if not 0.0 <= q <= 1.0:
            raise TrafficError(f"percentile must be in [0, 1], got {q}")
        if not self.frame_latencies:
            return 0.0
        ordered = sorted(self.frame_latencies)
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)]

    def latency_summary(self) -> Dict[str, float]:
        """p50/p90/p99 frame latencies in milliseconds."""
        return {
            f"p{p}_ms": self.latency_percentile(p / 100) * 1e3
            for p in (50, 90, 99)
        }


def tally_priorities(
    outcomes: Sequence[Tuple[Optional[str], bool]],
) -> Optional[Dict[str, Dict[str, int]]]:
    """``{priority: {"arrivals", "admitted", "rejected"}}`` over
    ``(priority, admitted)`` arrival outcomes, in first-seen order;
    None when no outcome carries a priority."""
    per_priority: Dict[str, Dict[str, int]] = {}
    for priority, admitted in outcomes:
        if priority is not None:
            bucket = per_priority.setdefault(
                priority, {"arrivals": 0, "admitted": 0, "rejected": 0}
            )
            bucket["arrivals"] += 1
            bucket["admitted" if admitted else "rejected"] += 1
    return per_priority or None


def drive(
    controller: AdmissionController,
    events: Sequence[TraceEvent],
    *,
    batch_size: int = 1024,
) -> LoadgenResult:
    """Replay a workload event stream against a controller.

    Departures of flows that were rejected (or never seen) are skipped,
    so rejection-heavy traces replay cleanly.  Event decoding — building
    :class:`FlowSpec` objects and slicing epochs — happens before the
    clock starts: ``elapsed_seconds`` measures the admission calls (and
    the bookkeeping needed to route releases), not trace parsing.
    """
    if batch_size < 1:
        raise TrafficError(f"batch_size must be >= 1, got {batch_size}")
    admitted_ids = set()
    num_arrivals = num_admitted = num_released = 0
    # Priorities are tallied after the timed window, from the decisions
    # kept for a priority-labelled trace.
    priority_of = {
        e.flow_id: e.priority
        for e in events
        if e.kind == "arrival" and e.priority is not None
    }
    decisions: List[AdmissionDecision] = []
    # Epoch = up to batch_size consecutive arrivals plus the
    # departure ids interleaved with them.
    epochs: List[Tuple[List[FlowSpec], List[Hashable]]] = []
    arrivals: List[FlowSpec] = []
    departures: List[Hashable] = []
    for event in events:
        if event.kind == "arrival":
            arrivals.append(event.flow)
            if len(arrivals) == batch_size:
                epochs.append((arrivals, departures))
                arrivals, departures = [], []
        else:
            departures.append(event.flow_id)
    if arrivals or departures:
        epochs.append((arrivals, departures))
    start = time.perf_counter()
    for flows, dep_ids in epochs:
        # Flows admitted in earlier epochs leave before this
        # epoch's admissions contend for their slots.
        early = [fid for fid in dep_ids if fid in admitted_ids]
        if early:
            controller.release_batch(early)
            admitted_ids.difference_update(early)
            num_released += len(early)
        if flows:
            num_arrivals += len(flows)
            decided = controller.admit_batch(flows)
            if priority_of:
                decisions.extend(decided)
            for decision in decided:
                if decision.admitted:
                    admitted_ids.add(decision.flow_id)
                    num_admitted += 1
        # Same-epoch departures of flows just admitted (the early
        # ones were already dropped from admitted_ids).
        late = [fid for fid in dep_ids if fid in admitted_ids]
        if late:
            controller.release_batch(late)
            admitted_ids.difference_update(late)
            num_released += len(late)
    elapsed = time.perf_counter() - start
    return LoadgenResult(
        batch_size=batch_size,
        num_arrivals=num_arrivals,
        num_admitted=num_admitted,
        num_rejected=num_arrivals - num_admitted,
        num_released=num_released,
        elapsed_seconds=elapsed,
        per_priority=tally_priorities(
            [(priority_of.get(d.flow_id), d.admitted) for d in decisions]
        ),
        num_skipped=len(events) - num_arrivals - num_released,
    )
