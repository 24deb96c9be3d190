"""Per-layer waterfall: the same frames replayed at every boundary.

Each layer is measured **from outside**, by timing calls into its
public functions; nothing under ``src/`` is edited or patched, and
``repro.obs`` stays off (enabling it would switch the coalescer's
inline path off and measure another program — the one place it is
turned on is the measurement of what turning it on costs).

Two inputs, both a pure function of the seed:

``.burst``
    frames of 1024 admits on round-robin pairs into an empty ledger —
    the only shape the legacy ``BENCH_service.json`` cells measured;
``.churn``
    frames cut from the ``bulk_churn`` trace after its warm-up, admits
    and releases interleaved as arrivals and departures are.

The nested boundaries, innermost first: slot kernel
(``batch_slot_decisions``) → controller (``admit_batch_routed`` /
``release_batch``, one call per run, runs cut the way the coalescer
cuts them) → coalescer (``open_bulk`` + ``submit_bulk``) → v2 codec →
loopback socket (an in-process ``AdmissionService`` and
``AsyncServiceClient``).  Every call is one span (name, start, end,
frame, parent level) in the benchmark's own recorder; a layer's self
time is its spans minus the spans of the level below for the same
frames.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import loadgen
from loadgen import (
    ADMITTED,
    ALPHA,
    CLASS_NAME,
    REJECTED,
    RELEASED,
    Fixture,
    Frame,
    Planner,
    Reference,
    Trace,
)

import repro.obs as obs
from repro.admission.batch import (
    PADDING_FREE,
    batch_slot_decisions,
    pad_server_matrix,
)
from repro.admission.flowtable import FlowTable
from repro.admission.ledger import UtilizationLedger
from repro.analysis.verification import verify_assignment
from repro.control import AlphaGovernor, certify_ladder
from repro.control.governor import GovernorSample
from repro.routing.shortest import shortest_path_routes
from repro.service import (
    AdmissionService,
    AuditLog,
    MicroBatchCoalescer,
    ServiceConfig,
)
from repro.service import protocol as wire
from repro.service.coalescer import BULK_OP_ADMIT, BULK_OP_RELEASE
from repro.topology import mci_backbone
from repro.traffic.flows import FlowSpec
from repro.workload import drive
from repro.workload.trace import TraceEvent

#: Ops of a replayed frame (the bulk workloads' frame size).
FRAME_OPS = 1024


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #

#: Nesting of the replay levels: a level's parent is the next one out.
LEVELS = ("kernel", "controller", "coalescer", "codec", "socket")

#: The four timed calls of the codec level.
CODEC_CALLS = ("encode_req", "decode_req", "encode_resp", "decode_resp")


class Recorder:
    """In-memory span recorder of the benchmark itself."""

    def __init__(self):
        #: ``(name, level, start, end, frame)`` per timed call.
        self.spans: List[Tuple[str, str, float, float, int]] = []

    def add(
        self, name: str, level: str, start: float, end: float, frame: int
    ) -> None:
        self.spans.append((name, level, start, end, frame))

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome-trace JSON: one row (tid) per level, one complete
        event per span, the parent level and frame id in ``args``."""
        events = []
        for name, level, start, end, frame in self.spans:
            depth = LEVELS.index(level)
            events.append(
                {
                    "name": name,
                    "cat": level,
                    "ph": "X",
                    "pid": 1,
                    "tid": len(LEVELS) - depth,
                    "ts": 1e6 * start,
                    "dur": 1e6 * (end - start),
                    "args": {
                        "frame": frame,
                        "parent": (
                            LEVELS[depth + 1]
                            if depth + 1 < len(LEVELS)
                            else None
                        ),
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)


class Clock:
    """Times calls, frame by frame; each call becomes a span when a
    recorder is given.

    Numbers are read per frame and reported at the frames' quiet
    quartile: a replay is a second or two, the neighbours' bursts are
    as long, and a sum over frames would carry whichever burst a pass
    happened to meet into the difference between two passes.  That is
    right for attributing a frame's time to layers and wrong for a
    served run, whose periodic costs miss most frames: the served
    timings are medians over second-long segments (``loadgen.segments``).
    """

    #: Percentile over the replayed frames.
    QUIET_PCT = 25

    def __init__(self, recorder: Optional[Recorder], tag: str):
        self.recorder = recorder
        self.tag = tag
        #: ``name -> frame -> [seconds, ops]``.
        self.cells: Dict[str, Dict[int, List[float]]] = {}

    def add(
        self,
        name: str,
        level: str,
        start: float,
        end: float,
        frame: int,
        ops: int,
    ) -> None:
        cell = self.cells.setdefault(name, {}).setdefault(frame, [0.0, 0])
        cell[0] += end - start
        cell[1] += ops
        if self.recorder is not None:
            self.recorder.add(f"{name}.{self.tag}", level, start, end, frame)

    def us_per_op(self, *names: str, per: Optional[str] = None) -> float:
        """Quiet-quartile microseconds per op of ``names`` together,
        frame by frame; ``per`` names whose op count divides (default:
        the first name's own)."""
        frames = self.cells[per or names[0]]
        values = sorted(
            1e6
            * sum(self.cells.get(n, {}).get(f, (0.0, 0))[0] for n in names)
            / ops
            for f, (_seconds, ops) in frames.items()
            if ops
        )
        return loadgen.percentile(values, self.QUIET_PCT)


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #


class Inputs:
    """The seeded frames every layer replays, decoded once."""

    def __init__(
        self,
        fx: Fixture,
        seed: int,
        chain_frames: int,
        warmup_events: Optional[int] = None,
    ):
        self.fx = fx
        workload = loadgen.WORKLOADS["bulk_churn"]
        self.warmup_events = warmup_events or workload.warmup_events
        flows = (self.warmup_events + chain_frames * FRAME_OPS) * 2 // 3
        self.trace = loadgen.make_trace(workload, seed, flows, fx)
        planner = Planner(self.trace, Reference(fx, preempt=False))
        self.warm = planner.frames(FRAME_OPS, event_limit=self.warmup_events)
        self.churn = planner.frames(
            FRAME_OPS, max_ops=chain_frames * FRAME_OPS
        )
        self.churn_events = planner.cursor
        loadgen.encode_payloads(self.churn, self.trace, "bulk")
        self.burst_trace, self.burst = self._burst(chain_frames)

    def _burst(self, count: int) -> Tuple[Trace, List[Frame]]:
        pairs = self.fx.pairs
        n = count * FRAME_OPS
        trace = Trace(
            seed=self.trace.seed,
            events=list(range(n)),
            flow_ids=[f"b{i}" for i in range(n)],
            pair_of=[i % len(pairs) for i in range(n)],
            priorities=["elastic"] * n,
            pairs=pairs,
            gen_seconds=0.0,
        )
        frames = [
            Frame(
                ops=list(range(k * FRAME_OPS, (k + 1) * FRAME_OPS)),
                expected=[ADMITTED] * FRAME_OPS,
            )
            for k in range(count)
        ]
        loadgen.encode_payloads(frames, trace, "bulk")
        return trace, frames

    def warm_controller(self):
        """A fresh controller holding exactly the flows the churn
        warm-up leaves established, admitted in one batch: the same
        ledger as replaying the warm-up, in a hundredth of the time."""
        alive: Dict[int, None] = {}
        for frame in self.warm:
            for op, code in zip(frame.ops, frame.expected):
                if op < 0:
                    del alive[~op]
                elif code == ADMITTED:
                    alive[op] = None
        controller = self.fx.controller()
        decisions = controller.admit_batch([self.trace.spec(f) for f in alive])
        if not all(d.admitted for d in decisions):
            raise SystemExit("warm-up survivors no longer fit the ledger")
        return controller


def runs_of(trace: Trace, frame: Frame):
    """``(is_admit, [FlowSpec...])`` per maximal same-kind run of a
    frame — the segmentation ``MicroBatchCoalescer`` applies (flow ids
    never repeat inside one of our frames, so its duplicate split
    never fires)."""
    out: List[Tuple[bool, List[FlowSpec]]] = []
    for op in frame.ops:
        is_admit = op >= 0
        flow = trace.spec(op if is_admit else ~op)
        if out and out[-1][0] == is_admit:
            out[-1][1].append(flow)
        else:
            out.append((is_admit, [flow]))
    return out


def entries_of(trace: Trace, frame: Frame):
    """A frame as the ``submit_bulk`` entries the server decodes it to."""
    return [
        (i, BULK_OP_ADMIT, trace.spec(op))
        if op >= 0
        else (i, BULK_OP_RELEASE, trace.flow_ids[~op])
        for i, op in enumerate(frame.ops)
    ]


def outcome_codes(outcomes: Sequence[object]) -> List[int]:
    out = []
    for o in outcomes:
        if o is True:
            out.append(RELEASED)
        elif isinstance(o, BaseException):
            out.append(loadgen.FAILED)
        else:
            out.append(ADMITTED if o.admitted else REJECTED)
    return out


def _empty(controller) -> None:
    """Release every established flow (between burst frames, untimed)."""
    controller.release_batch(
        [flow.flow_id for flow in controller.established_flows]
    )


def _expect(frame: Frame, codes: List[int], where: str) -> None:
    if codes != frame.expected:
        raise SystemExit(
            f"{where}: in-process replay disagrees with the plan"
        )


# ---------------------------------------------------------------------- #
# kernel + controller
# ---------------------------------------------------------------------- #


def controller_frame(
    controller, trace: Trace, frame: Frame, k: int, clock: Clock
) -> Tuple[int, int]:
    """Replay frame ``k`` run by run through the controller; returns
    how many runs, and how many admit runs (= kernel calls), it took.

    Before each admit run the kernel alone is timed on the exact
    matrix and free vector the controller is about to build; the
    controller call that follows (and runs the kernel again inside) is
    the next level out.
    """
    graph = controller.graph
    ledger = controller.ledger
    pad = graph.num_servers
    route_map = controller.route_map
    runs = admit_runs = 0
    codes: List[int] = []
    for is_admit, flows in runs_of(trace, frame):
        runs += 1
        if not is_admit:
            ids = [f.flow_id for f in flows]
            t0 = perf_counter()
            controller.release_batch(ids)
            t1 = perf_counter()
            clock.add("release_batch", "controller", t0, t1, k, len(ids))
            codes.extend([RELEASED] * len(ids))
            continue
        routes = [route_map[f.pair] for f in flows]
        matrix, _lengths = pad_server_matrix(
            [graph.route_servers(r) for r in routes], pad
        )
        free = np.empty(pad + 1, dtype=np.int64)
        np.subtract(
            ledger.capacity_view(CLASS_NAME),
            ledger.used_view(CLASS_NAME),
            out=free[:pad],
        )
        free[pad] = PADDING_FREE
        t0 = perf_counter()
        alone = batch_slot_decisions(matrix, free)
        t1 = perf_counter()
        clock.add("kernel", "kernel", t0, t1, k, len(flows))
        t0 = perf_counter()
        decisions = controller.admit_batch_routed(flows, routes)
        t1 = perf_counter()
        clock.add("admit_batch", "controller", t0, t1, k, len(flows))
        admit_runs += 1
        # The kernel's inputs are rebuilt here from its documented
        # contract; if the controller ever feeds it differently the
        # two stop agreeing and the replay says so.
        if alone.tolist() != [d.admitted for d in decisions]:
            raise SystemExit(
                "controller level: the kernel timed alone decided "
                "otherwise than the controller's own kernel call"
            )
        codes.extend(outcome_codes(decisions))
    _expect(frame, codes, "controller level")
    return runs, admit_runs


def sequential_pass(controller, trace: Trace, frames: Sequence[Frame]):
    """Plain ``admit()`` / ``release()`` per op; µs per op of each."""
    admit_s = release_s = 0.0
    admits = releases = 0
    for frame in frames:
        codes: List[int] = []
        for op in frame.ops:
            if op >= 0:
                flow = trace.spec(op)
                t0 = perf_counter()
                decision = controller.admit(flow)
                admit_s += perf_counter() - t0
                admits += 1
                codes.append(ADMITTED if decision.admitted else REJECTED)
            else:
                flow_id = trace.flow_ids[~op]
                t0 = perf_counter()
                controller.release(flow_id)
                release_s += perf_counter() - t0
                releases += 1
                codes.append(RELEASED)
        _expect(frame, codes, "sequential pass")
    return 1e6 * admit_s / admits, 1e6 * release_s / releases


def epoch_pass(inputs: Inputs) -> float:
    """``workload.drive`` in epochs of 1024 arrivals over the same
    events (warm-up included: ``drive`` tracks its own admitted set):
    what a churn op costs when nothing fragments the batches."""
    trace = inputs.trace
    events = []
    for t, event in enumerate(trace.events[: inputs.churn_events]):
        if event >= 0:
            flow = trace.spec(event)
            events.append(
                TraceEvent(
                    float(t),
                    "arrival",
                    flow.flow_id,
                    flow.class_name,
                    flow.source,
                    flow.destination,
                )
            )
        else:
            events.append(
                TraceEvent(float(t), "departure", trace.flow_ids[~event])
            )
    result = drive(inputs.fx.controller(), events, batch_size=FRAME_OPS)
    return 1e6 * result.elapsed_seconds / result.total_ops


def ledger_pass(inputs: Inputs, frames: Sequence[Frame]) -> Dict[str, float]:
    """Ledger and flow-table calls alone, sized like the churn runs:
    each admit run is committed and added, then popped and released."""
    fx, trace = inputs.fx, inputs.trace
    ledger = UtilizationLedger(fx.graph, fx.registry, {CLASS_NAME: ALPHA})
    pad = fx.graph.num_servers
    table = FlowTable(pad=pad)
    total = {"commit": 0.0, "add": 0.0, "pop": 0.0, "release": 0.0}
    flows_done = 0
    for frame in frames:
        for is_admit, flows in runs_of(trace, frame):
            if not is_admit:
                continue
            ids = [f.flow_id for f in flows]
            matrix, lengths = pad_server_matrix(
                [fx.graph.route_servers(fx.routes[f.pair]) for f in flows],
                pad,
            )
            flat = matrix[matrix != pad]
            t0 = perf_counter()
            ledger.commit_flat(CLASS_NAME, flat, len(ids))
            t1 = perf_counter()
            table.add_batch(ids, 0, matrix, lengths)
            t2 = perf_counter()
            _codes, popped, _lengths, _tags = table.pop_batch(ids)
            t3 = perf_counter()
            ledger.release_flat(CLASS_NAME, popped[popped != pad], len(ids))
            t4 = perf_counter()
            total["commit"] += t1 - t0
            total["add"] += t2 - t1
            total["pop"] += t3 - t2
            total["release"] += t4 - t3
            flows_done += len(ids)
    return {k: 1e6 * v / flows_done for k, v in total.items()}


# ---------------------------------------------------------------------- #
# coalescer
# ---------------------------------------------------------------------- #


async def coalescer_frame(
    coalescer: MicroBatchCoalescer,
    trace: Trace,
    frame: Frame,
    k: int,
    clock: Clock,
    *,
    mode: str,
) -> None:
    """Frame ``k`` through a ``MicroBatchCoalescer``.

    ``inline``: ``open_bulk`` + ``submit_bulk`` with nothing pending —
    the path a plain server takes.  ``queued``: every op through the
    queue and the drain loop, awaited like the server awaits it — the
    path audit or obs force; with an audit log attached ``submit_bulk``
    takes that branch itself and writes the log.
    """
    entries = entries_of(trace, frame)
    t0 = perf_counter()
    slots = coalescer.open_bulk(len(entries))
    if mode == "inline" or coalescer.audit is not None:
        coalescer.submit_bulk(slots, entries)
    else:
        for index, kind, payload in entries:
            if kind == BULK_OP_ADMIT:
                coalescer.submit_bulk_admit(slots, index, payload)
            else:
                coalescer.submit_bulk_release(slots, index, payload)
    await slots.wait()
    t1 = perf_counter()
    clock.add(mode, "coalescer", t0, t1, k, len(entries))
    _expect(frame, outcome_codes(slots.outcomes), f"coalescer {mode}")


async def queued_pass(
    controller,
    trace: Trace,
    frames: Sequence[Frame],
    clock: Clock,
    *,
    audit: Optional[AuditLog] = None,
) -> None:
    """``frames`` through the coalescer's queue and drain loop."""
    coalescer = MicroBatchCoalescer(controller)
    coalescer.audit = audit
    coalescer.start()
    try:
        for k, frame in enumerate(frames):
            await coalescer_frame(
                coalescer, trace, frame, k, clock, mode="queued"
            )
    finally:
        await coalescer.stop()


async def single_pass(
    controller, trace: Trace, frames: Sequence[Frame], max_delay: float
) -> float:
    """One request at a time through the queue; mean seconds each."""
    coalescer = MicroBatchCoalescer(controller, max_delay=max_delay)
    coalescer.start()
    total = 0.0
    try:
        for frame in frames:
            (op,) = frame.ops
            if op >= 0:
                flow = trace.spec(op)
                t0 = perf_counter()
                await coalescer.submit_admit(flow)
            else:
                flow_id = trace.flow_ids[~op]
                t0 = perf_counter()
                await coalescer.submit_release(flow_id)
            total += perf_counter() - t0
    finally:
        await coalescer.stop()
    return total / len(frames)


# ---------------------------------------------------------------------- #
# codec
# ---------------------------------------------------------------------- #


def _result_slots(frame: Frame) -> List[List[Any]]:
    slots = []
    for code in frame.expected:
        if code == RELEASED:
            slots.append([wire.SLOT_RELEASED])
        elif code == ADMITTED:
            slots.append([wire.SLOT_ADMITTED, "", FRAME_OPS])
        else:
            slots.append(
                [
                    wire.SLOT_REJECTED,
                    f"utilization limit reached for class {CLASS_NAME!r} "
                    "on the path",
                    FRAME_OPS,
                ]
            )
    return slots


def codec_frame(frame: Frame, k: int, clock: Clock) -> int:
    """v2 bulk codec of frame ``k``, both directions, both ends;
    returns its wire bytes."""
    header = wire.FRAME_HEADER_BYTES
    t0 = perf_counter()
    request = wire.encode_bulk_request(k + 1, frame.payload)
    t1 = perf_counter()
    clock.add("encode_req", "codec", t0, t1, k, len(frame.ops))
    t0 = perf_counter()
    _tag, obj = wire.decode_payload_v2(request[header:])
    _rid, subops = wire.parse_bulk_request(obj)
    for sub in subops:
        if sub[0] == wire.BULK_ADMIT:
            wire.bulk_admit_flow(sub)
        else:
            wire.validate_flow_id(sub[1])
    t1 = perf_counter()
    clock.add("decode_req", "codec", t0, t1, k, len(frame.ops))
    slots = _result_slots(frame)
    t0 = perf_counter()
    response = wire.encode_bulk_response(k + 1, slots)
    t1 = perf_counter()
    clock.add("encode_resp", "codec", t0, t1, k, len(frame.ops))
    t0 = perf_counter()
    wire.decode_payload_v2(response[header:])
    t1 = perf_counter()
    clock.add("decode_resp", "codec", t0, t1, k, len(frame.ops))
    return len(request) + len(response)


def codec_v1_pass(frames: Sequence[Frame], trace: Trace) -> Dict[str, float]:
    """v1 line codec of single requests: encode and decode seconds per
    request (client and server ends together), and wire bytes."""
    encode = decode = 0.0
    wire_bytes = 0
    for k, frame in enumerate(frames):
        (op,) = frame.ops
        name, body = frame.payload
        t0 = perf_counter()
        line = wire.encode_frame({"id": k + 1, "op": name, **body})
        t1 = perf_counter()
        request = wire.parse_request(line)
        if name == "admit":
            wire.flow_from_obj(request.body["flow"])
            result = {
                "admitted": frame.expected[0] == ADMITTED,
                "batch_size": 1,
                "reason": "",
            }
        else:
            wire.validate_flow_id(request.body["flow_id"])
            result = {"released": True}
        t2 = perf_counter()
        answer = wire.encode_frame(wire.ok_response(k + 1, result))
        t3 = perf_counter()
        wire.decode_frame(answer)
        t4 = perf_counter()
        encode += (t1 - t0) + (t3 - t2)
        decode += (t2 - t1) + (t4 - t3)
        wire_bytes += len(line) + len(answer)
    n = len(frames)
    return {
        "encode": encode / n,
        "decode": decode / n,
        "bytes": wire_bytes / n,
    }


# ---------------------------------------------------------------------- #
# loopback socket
# ---------------------------------------------------------------------- #


@contextlib.asynccontextmanager
async def loopback(
    controller,
    socket_path: str,
    framing: str,
    config: Optional[ServiceConfig] = None,
):
    """An in-process ``AdmissionService`` on a Unix socket and an
    ``AsyncServiceClient`` connected to it (shipped defaults unless
    ``config`` says otherwise)."""
    service = AdmissionService(controller, config or ServiceConfig())
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    await service.start_unix(socket_path)
    client = await loadgen.connect(socket_path, framing)
    try:
        yield client
    finally:
        await client.close()
        await service.drain()


async def socket_frame(
    client, framing: str, frame: Frame, k: int, clock: Clock
) -> None:
    """Round trip of frame ``k`` over the loopback socket."""
    t0 = perf_counter()
    codes = await loadgen.send(client, framing, frame)
    t1 = perf_counter()
    clock.add("rtt", "socket", t0, t1, k, len(frame.ops))
    _expect(frame, codes, f"socket {framing}")


async def socket_pass(
    controller,
    frames: Sequence[Frame],
    clock: Clock,
    *,
    socket_path: str,
    framing: str,
    config: Optional[ServiceConfig] = None,
) -> None:
    """``frames`` one at a time over the loopback socket."""
    async with loopback(controller, socket_path, framing, config) as client:
        for k, frame in enumerate(frames):
            await socket_frame(client, framing, frame, k, clock)


async def chain_pass(
    make_controller,
    trace: Trace,
    frames: Sequence[Frame],
    clock: Clock,
    *,
    socket_path: str,
    drain: bool,
    bare: Optional[Clock] = None,
) -> Tuple[int, int, int]:
    """Each frame through every nested level before the next frame:
    kernel + controller, coalescer (inline), v2 codec, loopback socket,
    every level on a controller of its own in the same state.

    A frame's levels run within a tenth of a second of each other, so
    a change in the runner's speed moves them together and a level
    minus the level below, frame by frame, stays a self time.  (Level
    by level over all the frames, as this replay first ran, the
    coalescer's self time came out negative whenever the machine sped
    up between two passes.)  ``drain`` empties the ledgers after every
    frame, outside the clock, so a burst never saturates them; ``bare``
    times a second socket level into a clock without a recorder.
    Returns the runs, the admit runs (= kernel calls) and the wire
    bytes of all the frames.
    """
    inner, middle, outer, spare = (make_controller() for _ in range(4))
    coalescer = MicroBatchCoalescer(middle)
    runs = admit_runs = wire_bytes = 0
    async with contextlib.AsyncExitStack() as stack:
        client = await stack.enter_async_context(
            loopback(outer, socket_path, "bulk")
        )
        bare_client = None
        if bare is not None:
            bare_client = await stack.enter_async_context(
                loopback(spare, socket_path + "b", "bulk")
            )
        for k, frame in enumerate(frames):
            r, a = controller_frame(inner, trace, frame, k, clock)
            runs += r
            admit_runs += a
            await coalescer_frame(
                coalescer, trace, frame, k, clock, mode="inline"
            )
            wire_bytes += codec_frame(frame, k, clock)
            await socket_frame(client, "bulk", frame, k, clock)
            if bare_client is not None:
                await socket_frame(bare_client, "bulk", frame, k, bare)
            if drain:
                for controller in (inner, middle, outer, spare):
                    _empty(controller)
    return runs, admit_runs, wire_bytes


# ---------------------------------------------------------------------- #
# control plane and set-up costs
# ---------------------------------------------------------------------- #


def preempt_pass(fx: Fixture, seed: int, *, warmup_events: int, ops: int):
    """A small preempting replay; every ``try_admit`` is timed by the
    reference itself (see ``Reference.try_admit_s``)."""
    workload = loadgen.WORKLOADS["overload_governed"]
    trace = loadgen.make_trace(workload, seed, warmup_events + ops, fx)
    reference = Reference(fx, preempt=True)
    planner = Planner(trace, reference)
    planner.frames(workload.frame_ops, event_limit=warmup_events)
    planner.frames(workload.frame_ops, max_ops=ops)
    calls = max(reference.try_admit_calls, 1)
    return {
        "preempt.try_admit_us": 1e6 * reference.try_admit_s / calls,
        "preempt.established_at_call": (
            reference.established_at_calls / calls
        ),
        "preempt.rescued_share": reference.rescues / calls,
        "preempt.victims_per_rescue": (
            reference.preempted_flows / max(reference.preempted_admits, 1)
        ),
    }


def control_pass(fx: Fixture) -> Dict[str, float]:
    """Start-up work of ``serve``: routes, the Figure 2 fixed point,
    the governor's ladder; and one governor observation."""
    network = mci_backbone()
    t0 = perf_counter()
    shortest_path_routes(network, fx.pairs)
    t1 = perf_counter()
    routes = list(fx.routes.values())
    alphas = {CLASS_NAME: ALPHA}
    verdict = verify_assignment(fx.graph, routes, fx.registry, alphas)
    t2 = perf_counter()
    ladder = certify_ladder(
        fx.graph,
        routes,
        fx.registry,
        alphas,
        [ALPHA * f for f in (0.5, 0.625, 0.75, 0.875)],
    )
    t3 = perf_counter()
    governor = AlphaGovernor(ladder)
    sample = GovernorSample(queue_delay=0.0, headroom=0.5)
    rounds = 10_000
    t4 = perf_counter()
    for _ in range(rounds):
        governor.observe(sample)
    t5 = perf_counter()
    return {
        "routing.shortest_routes_ms": 1e3 * (t1 - t0),
        "fixedpoint.solve_ms": 1e3 * (t2 - t1),
        "fixedpoint.iterations": float(verdict.iterations),
        "ladder.certify_ms": 1e3 * (t3 - t2),
        "governor.observe_us": 1e6 * (t5 - t4) / rounds,
    }


# ---------------------------------------------------------------------- #
# the whole waterfall
# ---------------------------------------------------------------------- #


def measure(
    fx: Fixture,
    seed: int,
    workdir: str,
    *,
    warmup_events: Optional[int],
    chain_frames: int,
    side_frames: int,
    single_ops: int,
    preempt_warmup_events: int,
    preempt_ops: int,
) -> Tuple[Dict[str, float], Dict[str, List[Tuple[str, float]]], Recorder]:
    """Every workload-independent per-layer metric, the two waterfalls
    (see :func:`chain`), and the spans.

    ``chain_frames`` frames are replayed at each nested boundary,
    ``side_frames`` at the variants off the main chain (queued,
    audited, obs-on, sequential), ``single_ops`` requests in the v1
    replays, and ``preempt_ops`` ops after ``preempt_warmup_events``
    events in the small preempting replay (its cost grows with the
    established set; ``preempt.established_at_call`` says how large).
    """
    if obs.is_enabled():
        raise SystemExit("repro.obs is on: the waterfall needs it off")
    recorder = Recorder()
    inputs = Inputs(fx, seed, chain_frames, warmup_events)
    # The decoded inputs are a few hundred thousand live objects; keep
    # the collector from walking them inside every timed call.
    gc.collect()
    gc.freeze()
    trace, churn = inputs.trace, inputs.churn
    side = churn[:side_frames]
    socket_path = os.path.relpath(os.path.join(workdir, "layers.sock"))
    out: Dict[str, float] = {}

    # -- .burst: kernel -> controller -> coalescer -> codec -> socket -- #
    b = Clock(recorder, "burst")
    asyncio.run(
        chain_pass(
            fx.controller,
            inputs.burst_trace,
            inputs.burst,
            b,
            socket_path=socket_path,
            drain=True,
        )
    )
    out["kernels.us_per_row.burst"] = b.us_per_op("kernel")
    out["utilization.admit_batch_us_per_op.burst"] = b.us_per_op("admit_batch")
    out["coalescer.inline_us_per_op.burst"] = b.us_per_op("inline")
    out["server.v2_frame_rtt_us_per_op.burst"] = b.us_per_op("rtt")

    # -- .churn: the same chain on interleaved frames ------------------ #
    churn_ops = sum(len(f.ops) for f in churn)
    c = Clock(recorder, "churn")
    bare = Clock(None, "churn")
    runs, admit_runs, wire_bytes = asyncio.run(
        chain_pass(
            inputs.warm_controller,
            trace,
            churn,
            c,
            socket_path=socket_path,
            drain=False,
            bare=bare,
        )
    )
    out["trace.overhead_share"] = (
        c.us_per_op("rtt") / bare.us_per_op("rtt") - 1.0
    )
    out["kernels.us_per_row.churn"] = c.us_per_op("kernel")
    out["kernels.calls_per_kop.churn"] = 1e3 * admit_runs / churn_ops
    out["utilization.admit_batch_us_per_op.churn"] = c.us_per_op("admit_batch")
    out["utilization.release_batch_us_per_op.churn"] = c.us_per_op(
        "release_batch"
    )
    out["coalescer.mean_run_len.churn"] = churn_ops / runs
    out["coalescer.inline_us_per_op.churn"] = c.us_per_op("inline")
    for name in CODEC_CALLS:
        out[f"protocol.v2_{name}_us_per_op"] = c.us_per_op(name)
    out["protocol.v2_bytes_per_op"] = wire_bytes / churn_ops
    out["server.v2_frame_rtt_us_per_op.churn"] = c.us_per_op("rtt")
    chains = {"burst": chain(b), "churn": chain(c)}
    out["server.v2_self_us_per_op.churn"] = dict(chains["churn"])[
        "service.server"
    ]

    # -- side variants of the churn frames ------------------------------ #
    s = Clock(None, "side")
    asyncio.run(
        queued_pass(inputs.warm_controller(), trace, side, s)
    )
    queued = s.us_per_op("queued")
    out["coalescer.queued_us_per_op.churn"] = queued

    audit_path = os.path.join(workdir, "layers-audit.jsonl")
    if os.path.exists(audit_path):
        os.unlink(audit_path)
    audited = Clock(None, "audited")
    log = AuditLog(audit_path)
    try:
        asyncio.run(
            queued_pass(
                inputs.warm_controller(), trace, side, audited, audit=log
            )
        )
        records = log.records_written
    finally:
        log.close()
    out["audit.record_us_per_op"] = audited.us_per_op("queued") - queued
    out["audit.bytes_per_op"] = os.path.getsize(audit_path) / records
    out["audit.fsyncs_per_kop"] = (
        1e3 * (records // log.fsync_every) / records
    )

    observed = Clock(None, "obs")
    obs.enable(fresh=True)
    try:
        asyncio.run(
            queued_pass(inputs.warm_controller(), trace, side, observed)
        )
    finally:
        obs.disable()
        obs.reset()
    out["obs.enabled_extra_us_per_op"] = observed.us_per_op("queued") - queued

    admit_us, release_us = sequential_pass(
        inputs.warm_controller(), trace, side
    )
    out["utilization.admit_us_per_op.seq"] = admit_us
    out["utilization.release_us_per_op.seq"] = release_us
    out["utilization.epoch_us_per_op"] = epoch_pass(inputs)
    costs = ledger_pass(inputs, side)
    out["ledger.commit_us_per_op"] = costs["commit"]
    out["ledger.release_us_per_op"] = costs["release"]
    out["flowtable.add_us_per_op"] = costs["add"]
    out["flowtable.pop_us_per_op"] = costs["pop"]

    # -- single requests: the same churn ops, one per frame ------------ #
    planner = Planner(trace, Reference(fx, preempt=False))
    planner.frames(FRAME_OPS, event_limit=inputs.warmup_events)
    single = planner.frames(1, max_ops=single_ops)
    loadgen.encode_payloads(single, trace, "single")
    v1 = codec_v1_pass(single, trace)
    out["protocol.v1_encode_us_per_req"] = 1e6 * v1["encode"]
    out["protocol.v1_decode_us_per_req"] = 1e6 * v1["decode"]
    out["protocol.v1_bytes_per_req"] = v1["bytes"]
    lone = asyncio.run(
        single_pass(inputs.warm_controller(), trace, single, 0.0)
    )
    out["coalescer.single_us_per_op"] = 1e6 * lone
    # The window is wall time, not work: a tenth of the requests say
    # how long a lone request waits under the default ``max_delay``.
    few = single[: max(len(single) // 10, 1)]
    windowed = asyncio.run(
        single_pass(
            inputs.warm_controller(),
            trace,
            few,
            ServiceConfig().max_delay,
        )
    )
    lone_few = asyncio.run(
        single_pass(inputs.warm_controller(), trace, few, 0.0)
    )
    out["coalescer.window_wait_ms"] = 1e3 * (windowed - lone_few)
    r = Clock(recorder, "single")
    asyncio.run(
        socket_pass(
            inputs.warm_controller(),
            few,
            r,
            socket_path=socket_path,
            framing="single",
        )
    )
    out["server.v1_rpc_rtt_us"] = r.us_per_op("rtt")
    # Self time from a replay without the window: subtracting 2.5 ms of
    # timer from a 2.6 ms round trip leaves only the timer's jitter.
    unwindowed = Clock(None, "single")
    asyncio.run(
        socket_pass(
            inputs.warm_controller(),
            few,
            unwindowed,
            socket_path=socket_path,
            framing="single",
            config=ServiceConfig(max_delay=0.0),
        )
    )
    out["server.v1_self_us_per_req"] = (
        unwindowed.us_per_op("rtt")
        - out["protocol.v1_encode_us_per_req"]
        - out["protocol.v1_decode_us_per_req"]
        - 1e6 * lone_few
    )

    out.update(
        preempt_pass(
            fx,
            seed,
            warmup_events=preempt_warmup_events,
            ops=preempt_ops,
        )
    )
    out.update(control_pass(fx))
    gc.unfreeze()
    return out, chains, recorder


def chain(clock: Clock) -> List[Tuple[str, float]]:
    """One input's waterfall as ``(layer, self µs per frame op)`` rows,
    innermost first, then the socket round trip they sum to.

    A level's self time is its spans minus the spans of the level
    below on the same frames, per op of the whole frame (a release
    never reaches the kernel); the outermost is the remainder.  The
    frames are the quieter half of the replay, judged by everything
    timed on a frame together: a difference of two levels has no quiet
    end of its own, so all rows are read off the same frames."""
    cells = clock.cells
    levels = (
        ("kernel",),
        ("admit_batch", "release_batch"),
        ("inline",),
        CODEC_CALLS,
        ("rtt",),
    )

    def seconds(names: Sequence[str], frame: int) -> float:
        # A burst frame has no release run: no cell, no time.
        return sum(cells.get(n, {}).get(frame, (0.0, 0))[0] for n in names)

    frames = sorted(
        cells["rtt"],
        key=lambda f: sum(seconds(names, f) for names in levels),
    )
    quiet = frames[: max(1, len(frames) // 2)]
    ops = sum(cells["rtt"][f][1] for f in quiet)
    kernel, controller, coalescer, codec, rtt = (
        1e6 * sum(seconds(names, f) for f in quiet) / ops for names in levels
    )
    return [
        ("admission.kernels", kernel),
        ("admission.utilization", controller - kernel),
        ("service.coalescer", coalescer - controller),
        ("service.protocol", codec),
        ("service.server", rtt - codec - coalescer),
        ("socket round trip", rtt),
    ]
