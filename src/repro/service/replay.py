"""Replay recorded workload traces through the admission service.

The bridge between :mod:`repro.workload` and :mod:`repro.service`: any
``repro-workload-trace/v1`` event stream (recorded by the loadgen, or
synthesized by :func:`~repro.workload.loadgen.schedule_events`) can be
driven at a live server, mirroring the semantics of
:func:`repro.workload.loadgen.drive` — arrivals admit, departures
release, and departures of flows that were rejected (or never seen)
count as *skipped*, not failures.

Events are shipped in order inside ``batch`` frames (one frame at a
time), so the server decides them in exactly the recorded order and the
micro-batch coalescer still gets full windows to amortize over.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ServiceError, TrafficError
from ..workload.trace import TraceEvent, read_trace
from . import protocol
from .client import ServiceClient
from .router import HashRing

__all__ = [
    "ServiceReplayResult",
    "partition_events",
    "replay_events",
    "replay_events_concurrent",
    "replay_trace",
]


@dataclass(frozen=True)
class ServiceReplayResult:
    """Outcome summary of one service replay run."""

    num_arrivals: int
    num_admitted: int
    num_rejected: int
    num_released: int
    num_skipped: int
    num_errors: int
    frames: int
    elapsed_seconds: float
    #: Client-observed round-trip seconds of each ``batch`` frame, in
    #: send order (empty for results predating latency capture).
    frame_latencies: Tuple[float, ...] = field(default=())
    #: ``{priority: {"arrivals": n, "admitted": n, "rejected": n}}``,
    #: populated only when the replayed events carried priorities.
    per_priority: Optional[Dict[str, Dict[str, int]]] = field(
        default=None
    )

    @property
    def total_ops(self) -> int:
        """Admission attempts plus successful releases."""
        return self.num_arrivals + self.num_released

    @property
    def ops_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("nan")
        return self.total_ops / self.elapsed_seconds

    def latency_percentile(self, q: float) -> float:
        """Frame-latency percentile in seconds (nearest-rank over the
        recorded frames; 0.0 when none were recorded)."""
        if not 0.0 <= q <= 1.0:
            raise TrafficError(f"percentile must be in [0, 1], got {q}")
        if not self.frame_latencies:
            return 0.0
        ordered = sorted(self.frame_latencies)
        rank = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[rank]

    def latency_summary(self) -> Dict[str, float]:
        """p50/p90/p99 frame latencies in milliseconds."""
        return {
            "p50_ms": self.latency_percentile(0.50) * 1e3,
            "p90_ms": self.latency_percentile(0.90) * 1e3,
            "p99_ms": self.latency_percentile(0.99) * 1e3,
        }


def _op_of(event: TraceEvent) -> Dict[str, Any]:
    if event.kind == "arrival":
        return {"op": "admit", "flow": event.flow.to_obj()}
    return {"op": "release", "flow_id": event.flow_id}


def replay_events(
    client: ServiceClient,
    events: Sequence[TraceEvent],
    *,
    frame_size: int = 512,
) -> ServiceReplayResult:
    """Drive an event sequence through a connected client.

    Parameters
    ----------
    client:
        A connected :class:`~repro.service.client.ServiceClient`.
    frame_size:
        Ops per ``batch`` frame.  Larger frames pipeline deeper (fewer
        round trips); order within and across frames is preserved
        either way.
    """
    if frame_size < 1:
        raise TrafficError(
            f"frame_size must be >= 1, got {frame_size}"
        )
    ops = [_op_of(event) for event in events]
    kinds = [event.kind for event in events]
    priorities = [event.priority for event in events]
    per_priority: Optional[Dict[str, Dict[str, int]]] = (
        {} if any(p is not None for p in priorities) else None
    )
    arrivals = admitted = released = skipped = errors = 0
    admit_errors = 0
    frames = 0
    latencies: List[float] = []
    start = time.perf_counter()
    for lo in range(0, len(ops), frame_size):
        chunk = ops[lo:lo + frame_size]
        t_frame = time.perf_counter()
        results = client.batch(chunk)
        latencies.append(time.perf_counter() - t_frame)
        frames += 1
        if len(results) != len(chunk):
            raise ServiceError(
                f"batch frame returned {len(results)} results for "
                f"{len(chunk)} ops"
            )
        for offset, (kind, result) in enumerate(
            zip(kinds[lo:lo + frame_size], results)
        ):
            if kind == "arrival":
                arrivals += 1
                flow_admitted = bool(
                    result.get("ok")
                    and result["result"].get("admitted")
                )
                if result.get("ok"):
                    if flow_admitted:
                        admitted += 1
                else:
                    errors += 1
                    admit_errors += 1
                pri = priorities[lo + offset]
                if per_priority is not None and pri is not None:
                    bucket = per_priority.setdefault(
                        pri,
                        {"arrivals": 0, "admitted": 0, "rejected": 0},
                    )
                    bucket["arrivals"] += 1
                    bucket[
                        "admitted" if flow_admitted else "rejected"
                    ] += 1
            else:
                if result.get("ok"):
                    released += 1
                elif (
                    result.get("error", {}).get("code")
                    == protocol.ADMISSION_ERROR
                ):
                    # Departure of a rejected/unknown flow — drive()
                    # skips these; over the wire they surface as
                    # admission errors.
                    skipped += 1
                else:
                    errors += 1
    elapsed = time.perf_counter() - start
    return ServiceReplayResult(
        num_arrivals=arrivals,
        num_admitted=admitted,
        num_rejected=arrivals - admitted - admit_errors,
        num_released=released,
        num_skipped=skipped,
        num_errors=errors,
        frames=frames,
        elapsed_seconds=elapsed,
        frame_latencies=tuple(latencies),
        per_priority=per_priority,
    )


def partition_events(
    events: Sequence[TraceEvent], connections: int
) -> List[List[TraceEvent]]:
    """Split an event stream into per-connection streams by flow id.

    Partitioning uses the same consistent hash as the cluster front
    door (:class:`~repro.service.router.HashRing` with default
    parameters), so a flow's arrival and departure always travel down
    the same connection — per-flow ordering survives the fan-out — and
    when ``connections`` equals the cluster's worker count each
    connection's flows map onto exactly one worker's shard.
    """
    if connections < 1:
        raise TrafficError(
            f"connections must be >= 1, got {connections}"
        )
    ring = HashRing(connections)
    parts: List[List[TraceEvent]] = [[] for _ in range(connections)]
    for event in events:
        parts[ring.worker_of(event.flow_id)].append(event)
    return parts


def replay_events_concurrent(
    make_client: Callable[[int], ServiceClient],
    events: Sequence[TraceEvent],
    *,
    connections: int,
    frame_size: int = 512,
) -> ServiceReplayResult:
    """Drive an event stream over ``connections`` concurrent clients.

    ``make_client(i)`` is called **inside** worker thread ``i`` to
    build that connection's :class:`ServiceClient` (each sync client
    owns a private event loop, which must live on the thread that uses
    it).  Events are partitioned by :func:`partition_events`; counts
    and frame latencies are merged, and ``elapsed_seconds`` is the
    wall-clock window of the whole fan-out — ``ops_per_second`` is
    honest aggregate throughput, not a per-connection sum.
    """
    if connections == 1:
        client = make_client(0)
        with client:
            return replay_events(client, events, frame_size=frame_size)
    parts = partition_events(events, connections)

    def _one(index: int) -> ServiceReplayResult:
        client = make_client(index)
        with client:
            return replay_events(
                client, parts[index], frame_size=frame_size
            )

    start = time.perf_counter()
    with ThreadPoolExecutor(
        max_workers=connections, thread_name_prefix="repro-loadgen"
    ) as pool:
        results = list(pool.map(_one, range(connections)))
    elapsed = time.perf_counter() - start
    latencies: List[float] = []
    merged_priority: Optional[Dict[str, Dict[str, int]]] = None
    for result in results:
        latencies.extend(result.frame_latencies)
        if result.per_priority:
            if merged_priority is None:
                merged_priority = {}
            for pri, counts in result.per_priority.items():
                bucket = merged_priority.setdefault(
                    pri, {"arrivals": 0, "admitted": 0, "rejected": 0}
                )
                for key, value in counts.items():
                    bucket[key] = bucket.get(key, 0) + value
    return ServiceReplayResult(
        num_arrivals=sum(r.num_arrivals for r in results),
        num_admitted=sum(r.num_admitted for r in results),
        num_rejected=sum(r.num_rejected for r in results),
        num_released=sum(r.num_released for r in results),
        num_skipped=sum(r.num_skipped for r in results),
        num_errors=sum(r.num_errors for r in results),
        frames=sum(r.frames for r in results),
        elapsed_seconds=elapsed,
        frame_latencies=tuple(latencies),
        per_priority=merged_priority,
    )


def replay_trace(
    client: ServiceClient,
    path_or_events: Union[str, Sequence[TraceEvent]],
    *,
    frame_size: int = 512,
) -> ServiceReplayResult:
    """Replay a recorded trace file (or event list) through a client."""
    if isinstance(path_or_events, str):
        _meta, events = read_trace(path_or_events)
    else:
        events = list(path_or_events)
    return replay_events(client, events, frame_size=frame_size)
