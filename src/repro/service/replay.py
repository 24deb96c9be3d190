"""Replay recorded workload traces through the admission service.

The bridge between :mod:`repro.workload` and :mod:`repro.service`: any
``repro-workload-trace/v1`` event stream (recorded by the loadgen, or
synthesized by :func:`~repro.workload.loadgen.schedule_events`) can be
driven at a live server with :func:`replay_events`, one coroutine over
any number of :class:`~repro.service.client.AsyncServiceClient`
connections on one event loop.

Each connection keeps the gateway discipline: a departure is sent only
for a flow this driver saw admitted, and a frame ends early when a
departure's own admit is still in it.  Over one connection the server
therefore decides exactly what
:func:`repro.admission.statistics.replay_schedule` decides in process,
and no departure of a rejected flow reaches it.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..errors import ServiceError, TrafficError
from ..workload.loadgen import LoadgenResult, tally_priorities
from ..workload.trace import TraceEvent
from . import protocol
from .client import AsyncServiceClient
from .router import HashRing

__all__ = ["replay_events"]

#: Ops per ``batch`` frame, at most.
FRAME_SIZE = 1024


def _op_of(event: TraceEvent) -> Dict[str, Any]:
    if event.kind == "arrival":
        return {"op": "admit", "flow": event.flow.to_obj()}
    return {"op": "release", "flow_id": event.flow_id}


async def replay_events(
    clients: Sequence[AsyncServiceClient],
    events: Sequence[TraceEvent],
) -> LoadgenResult:
    """Drive ``events`` over ``clients``, one ``batch`` frame of up to
    :data:`FRAME_SIZE` ops in flight on each.

    Flows are split by the cluster front door's consistent hash
    (:class:`~repro.service.router.HashRing`): a flow's arrival and
    departure share a connection, and with one connection per worker
    each connection loads one shard.  ``elapsed_seconds`` spans the
    whole replay, so ``ops_per_second`` is aggregate throughput.
    """
    if not clients:
        raise TrafficError("replay_events needs at least one client")
    parts: List[List[TraceEvent]] = [list(events)]
    if len(clients) > 1:
        ring = HashRing(len(clients))
        parts = [[] for _ in clients]
        for event in events:
            parts[ring.worker_of(event.flow_id)].append(event)
    #: Flows seen admitted whose departure has not been sent.
    admitted: Set[Hashable] = set()
    #: ``(priority, admitted)`` of every decided arrival.
    outcomes: List[Tuple[Optional[str], bool]] = []
    latencies: List[float] = []
    count: Counter = Counter()

    async def send(client: AsyncServiceClient, frame: List[TraceEvent]):
        t0 = time.perf_counter()
        results = await client.batch([_op_of(e) for e in frame])
        latencies.append(time.perf_counter() - t0)
        if len(results) != len(frame):
            raise ServiceError(
                f"batch frame returned {len(results)} results for "
                f"{len(frame)} ops"
            )
        for event, result in zip(frame, results):
            arrival = event.kind == "arrival"
            if not result.get("ok"):
                outcome = "errors"
                code = result.get("error", {}).get("code")
                if not arrival and code == protocol.ADMISSION_ERROR:
                    # A preempting server evicted the flow: the wire
                    # does not report evictions.
                    outcome = "skipped"
            elif not arrival:
                outcome = "released"
            elif result["result"].get("admitted"):
                outcome = "admitted"
                admitted.add(event.flow_id)
            else:
                outcome = "rejected"
            count[outcome] += 1
            if arrival:
                outcomes.append((event.priority, outcome == "admitted"))

    async def drive_connection(
        client: AsyncServiceClient, part: List[TraceEvent]
    ) -> None:
        frame: List[TraceEvent] = []
        undecided: Set[Hashable] = set()  # arrivals in ``frame``
        for event in part:
            # A frame ends when full, or before an op whose flow's
            # admit it still holds.
            if len(frame) == FRAME_SIZE or event.flow_id in undecided:
                await send(client, frame)
                frame, undecided = [], set()
            if event.kind == "arrival":
                undecided.add(event.flow_id)
            elif event.flow_id in admitted:
                admitted.discard(event.flow_id)
            else:
                count["skipped"] += 1
                continue
            frame.append(event)
        if frame:
            await send(client, frame)

    start = time.perf_counter()
    await asyncio.gather(*map(drive_connection, clients, parts))
    return LoadgenResult(
        batch_size=FRAME_SIZE,
        num_arrivals=len(outcomes),
        num_admitted=count["admitted"],
        num_rejected=count["rejected"],
        num_released=count["released"],
        elapsed_seconds=time.perf_counter() - start,
        per_priority=tally_priorities(outcomes),
        num_skipped=count["skipped"],
        num_errors=count["errors"],
        frame_latencies=tuple(latencies),
    )
