"""Memory soak: deciding an op must not cost the server a byte it keeps.

The paper's run-time test keeps no per-flow state in the core and
nothing that grows with history; an admission server never restarts, so
anything retained per *decided* op is a leak with a rate.  The test
drives one stationary churn — a bit under 2k established flows, admits
and releases interleaved, every flow id unique — through a real
``UtilizationAdmissionController``, rotating its frames over three
``MicroBatchCoalescer`` configurations (inline ``submit_bulk``; inline
with an ``AuditLog`` attached and observability on; with a
``Preemptor`` rescuing rejected hard-RT arrivals), and asserts with
``tracemalloc`` that the heap after 60k ops is within 64 KiB of the heap
after 20k ops.
Retaining one decision record per admit costs about 170 bytes an op —
megabytes over the same window.  (``tracemalloc`` costs about a
microsecond per allocation, which is what makes this a ~6 s test.)

The measured window runs with the cycle collector **off**, and what the
collector finds afterwards must be nothing: a frame carrier that keeps
a reference cycle (``_Op -> _SlotFuture -> BulkSlots -> ops``) frees
nothing until a collection, which on a served workload is resident
memory — so it has to fail here, not at a benchmark bound.  A second
case drives whole bulk frames through an audited, obs-on
``AdmissionService`` under the same rule, and a third counts what an
obs-on served frame leaves in the span ring.
"""

import asyncio
import gc
import json
import re
import socket
import tracemalloc
from collections import deque

from repro import obs
from repro.admission import UtilizationAdmissionController
from repro.control import Preemptor
from repro.errors import AdmissionError
from repro.obs import OBS
from repro.routing.shortest import shortest_path_routes
from repro.service.audit import AuditLog
from repro.service.coalescer import (
    BULK_OP_ADMIT,
    BULK_OP_RELEASE,
    MicroBatchCoalescer,
)
from repro.traffic.flows import FlowSpec
from work_counts import bytes_per_wire_established_flow

WARM_OPS = 20_000
TOTAL_OPS = 60_000
FRAME_OPS = 512
RUN_OPS = 32
HARD_RT_EVERY = 128
ALPHA = 0.035
PATHS = ("inline", "inline_audited_obs", "preempt")
ESTABLISHED = 2_000
MAX_GROWTH_BYTES = 64 * 1024
#: The audited, obs-on frames record into a span ring this small, so it
#: is full long before the measured window: the window then sees what a
#: long-lived server does once its ring has wrapped.
SOAK_TRACE_CAPACITY = 16


class _Churn:
    """Stationary admit/release interleaving with unique flow ids."""

    def __init__(self, controller, pairs):
        self.controller = controller
        self.pairs = pairs
        self.window = deque()
        self.serial = 0
        self.ops = 0
        self.rejected = 0

    def frame(self):
        """One frame's ``(slot, kind, payload)`` entries: runs of
        ``RUN_OPS`` admits, each followed by the releases that bring
        the window back to ``ESTABLISHED``."""
        entries = []
        while len(entries) < FRAME_OPS:
            for i in range(self.serial, self.serial + RUN_OPS):
                src, dst = self.pairs[i % len(self.pairs)]
                flow = FlowSpec(
                    f"soak-{i}", "voice", src, dst,
                    priority="elastic" if i % HARD_RT_EVERY else "hard_rt",
                )
                entries.append((len(entries), BULK_OP_ADMIT, flow))
                self.window.append(flow.flow_id)
            self.serial += RUN_OPS
            while len(self.window) > ESTABLISHED:
                fid = self.window.popleft()
                # Rejected arrivals and preemption victims are gone.
                if self.controller.is_established(fid):
                    entries.append((len(entries), BULK_OP_RELEASE, fid))
        return entries

    def settle(self, entries, outcomes):
        for (_slot, kind, _payload), outcome in zip(entries, outcomes):
            if kind == BULK_OP_RELEASE:
                # A flow evicted after the frame was built, before its
                # release ran, fails the way any client racing an
                # eviction would.
                assert outcome is True or isinstance(
                    outcome, AdmissionError
                ), outcome
            elif not outcome.admitted:
                self.rejected += 1
        self.ops += len(entries)


def _traced_bytes():
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


async def _soak(coalescers, churn):
    """Rotate the churn's frames over ``coalescers``; returns the heap
    growth between ``WARM_OPS`` and ``TOTAL_OPS``, the unreachable
    objects the collector finds after that window (which runs with the
    collector off), and the ops each path decided."""
    decided = dict.fromkeys(coalescers, 0)
    for coalescer in coalescers.values():
        coalescer.start()
    try:
        at_warm = None
        frame = 0
        while churn.ops < TOTAL_OPS:
            path = PATHS[frame % len(PATHS)]
            frame += 1
            coalescer = coalescers[path]
            entries = churn.frame()
            slots = coalescer.open_bulk(len(entries))
            if path == "inline_audited_obs":
                obs.enable()
            try:
                coalescer.submit_bulk(slots, entries)
            finally:
                obs.disable()
            # Neither audit nor obs turns the inline path off.
            assert slots.remaining == 0
            await slots.wait()
            churn.settle(entries, slots.outcomes)
            decided[path] += len(entries)
            del entries, slots
            if at_warm is None and churn.ops >= WARM_OPS:
                at_warm = _traced_bytes()
                gc.disable()
        cycles = gc.collect()
        return _traced_bytes() - at_warm, cycles, decided
    finally:
        gc.enable()
        for coalescer in coalescers.values():
            await coalescer.stop()


def test_decided_ops_leave_nothing_behind(
    tmp_path, mci, mci_graph, mci_pairs, voice_registry, monkeypatch
):
    # Tight enough that some arrivals are rejected on every path, and
    # hard-RT ones on the preempt path go through the eviction planner.
    controller = UtilizationAdmissionController(
        mci_graph,
        voice_registry,
        {"voice": ALPHA},
        shortest_path_routes(mci, mci_pairs),
    )
    churn = _Churn(controller, mci_pairs)

    async def scenario():
        coalescers = {
            path: MicroBatchCoalescer(controller, max_delay=0.0)
            for path in PATHS
        }
        coalescers["preempt"].preemptor = Preemptor(controller)
        with AuditLog(str(tmp_path / "audit.jsonl")) as audit:
            coalescers["inline_audited_obs"].audit = audit
            growth, cycles, decided = await _soak(coalescers, churn)
        return (
            growth,
            cycles,
            decided,
            coalescers["preempt"].preempted_admits,
            audit.records_written,
        )

    # The registry and the small ring the audited frames record into;
    # _soak switches collection on for those frames only.
    monkeypatch.setattr(obs, "TRACE_CAPACITY", SOAK_TRACE_CAPACITY)
    obs.enable(fresh=True)
    obs.disable()
    tracemalloc.start()
    try:
        growth, cycles, decided, preempted_admits, audited = asyncio.run(
            scenario()
        )
    finally:
        tracemalloc.stop()

    assert growth <= MAX_GROWTH_BYTES, (
        f"heap grew {growth} bytes between op {WARM_OPS} and op "
        f"{TOTAL_OPS} ({controller.num_established} flows established)"
    )
    assert cycles == 0, f"{cycles} objects were only freed by the gc"
    assert min(decided.values()) >= TOTAL_OPS // 4, decided
    assert churn.rejected > 0 and preempted_admits > 0
    # A rescue is a second, counted, admit of the same arrival.
    assert controller.num_decisions == churn.serial + preempted_admits
    assert controller.num_rejected == churn.rejected + preempted_admits
    assert controller.verify_invariants() == []
    # The audited frames really were recorded: spans, and the audit log.
    assert len(OBS.tracer.records()) == SOAK_TRACE_CAPACITY
    assert audited == decided["inline_audited_obs"]


SERVED_WARM_FRAMES = 5
SERVED_FRAMES = 30
SERVED_FRAME_FLOWS = 64


def test_served_bulk_frames_leave_no_cycles(tmp_path):
    """Audited and obs-on, the server keeps a bulk frame's telemetry
    stamps for its request span: once the response is written nothing
    may still point at them (or at the slots they were decided into)."""
    from repro import obs
    from repro.service import (
        AdmissionService,
        AsyncServiceClient,
        ServiceConfig,
    )
    from tests.test_service_server import make_controller

    async def scenario():
        service = AdmissionService(
            make_controller(),
            ServiceConfig(audit_path=str(tmp_path / "audit.jsonl")),
        )
        sock = str(tmp_path / "s.sock")
        await service.start_unix(sock)
        client = await AsyncServiceClient.connect_unix(
            sock, protocol="v2"
        )
        serial = 0

        async def frame():
            nonlocal serial
            ids = [
                f"soak-{i}"
                for i in range(serial, serial + SERVED_FRAME_FLOWS)
            ]
            serial += SERVED_FRAME_FLOWS
            slots = await client.bulk(
                [[0, fid, "voice", "r0", "r3", None] for fid in ids]
                + [[1, fid] for fid in ids],
                raw=True,
            )
            # Admitted, then released.
            assert [s[0] for s in slots] == (
                [0] * SERVED_FRAME_FLOWS + [2] * SERVED_FRAME_FLOWS
            )

        try:
            for _ in range(SERVED_WARM_FRAMES):
                await frame()
            gc.collect()
            gc.disable()
            try:
                for _ in range(SERVED_FRAMES):
                    await frame()
                return gc.collect(), service.coalescer.batches
            finally:
                gc.enable()
        finally:
            await client.close()
            await service.drain()

    obs.enable(fresh=True)
    try:
        cycles, batches = asyncio.run(scenario())
    finally:
        obs.disable()
    assert batches >= SERVED_WARM_FRAMES + SERVED_FRAMES
    assert cycles == 0, f"{cycles} objects were only freed by the gc"


# --------------------------------------------------------------------- #
# spans per served frame
# --------------------------------------------------------------------- #

SPAN_FRAMES = 12
SPAN_FRAME_PAIRS = 32


def _server_spans_per_frame(controller, sock):
    """Serve ``SPAN_FRAMES`` obs-on v2 frames on ``sock``, each admits
    and releases interleaved (so one frame is ``2 * SPAN_FRAME_PAIRS``
    kernel runs), and return the server-side spans left in the ring per
    frame."""
    from repro.service import AdmissionService, AsyncServiceClient

    async def scenario():
        service = AdmissionService(controller)
        await service.start_unix(sock)
        client = await AsyncServiceClient.connect_unix(sock, protocol="v2")
        try:
            for k in range(SPAN_FRAMES):
                subops = []
                for i in range(SPAN_FRAME_PAIRS):
                    fid = f"span-{k}-{i}"
                    subops += [[0, fid, "voice", "r0", "r3", None], [1, fid]]
                await client.bulk(subops, raw=True)
        finally:
            await client.close()
            await service.drain()

    obs.enable(fresh=True)
    try:
        asyncio.run(scenario())
        names = [record.name for record in OBS.tracer.records()]
    finally:
        obs.disable()
    served = [name for name in names if not name.startswith("client.")]
    return len(served) / SPAN_FRAMES


class _SpanPerRun(UtilizationAdmissionController):
    """The planted offender: a span per kernel run, as the controller
    once recorded for every ``admit_batch_routed`` call."""

    def admit_batch_routed(self, flows, routes):
        with OBS.span("admission.admit_batch", batch=len(flows)):
            return super().admit_batch_routed(flows, routes)


def test_an_obs_on_frame_leaves_at_most_two_spans(tmp_path):
    """Recording a decision step costs one batch span, a request one
    request span: a long-lived server's ring holds its last few
    thousand frames, not the kernel runs of its last few dozen."""
    from tests.test_service_server import make_controller

    real = make_controller()
    planted = _SpanPerRun(
        real.graph, real.registry, dict(real.alphas), real.route_map
    )
    assert _server_spans_per_frame(real, str(tmp_path / "a.sock")) <= 2
    # The gate fires on a per-run span.
    per_frame = _server_spans_per_frame(planted, str(tmp_path / "b.sock"))
    assert per_frame > SPAN_FRAME_PAIRS


# --------------------------------------------------------------------- #
# bytes per established flow
# --------------------------------------------------------------------- #

#: Ceiling on what one established flow may keep alive, per fill of the
#: id dict.  What it must keep: the decoded id string (~57 B) and one
#: entry of the ``flow id -> value`` dict (~40 B); the value is an int
#: shared by every flow on the same route, class, priority and pin, and
#: the route is interned once in the route table.  That is ~99 B at
#: 6 000 flows and ~93 B at 4 100 (~187 and ~221 B while each flow had
#: a row of columns, a row int and an id-list slot, gated at 230 and
#: 250 B).  A record that keeps the decoded ``FlowSpec`` per flow (the
#: planted offender) is at 407-423 B: it must cost more than twice the
#: gate.
MAX_BYTES_PER_FLOW = {6_000: 130, 4_100: 130}


class _KeepsTheSpec(UtilizationAdmissionController):
    """The planted offender: a flow record that also keeps every
    decoded ``FlowSpec`` alive, one per row."""

    def _admit_batch_impl(self, flows, routes):
        outcomes = super()._admit_batch_impl(flows, routes)
        kept = self.__dict__.setdefault("kept", {})
        for flow, (ok, _reason) in zip(flows, outcomes):
            if ok:
                kept[flow.flow_id] = flow
        return outcomes


def _gate_bytes_per_flow(flows, mci, mci_graph, mci_pairs, voice_registry):
    gate = MAX_BYTES_PER_FLOW[flows]
    routes = shortest_path_routes(mci, mci_pairs)
    per_flow = {}
    tracemalloc.start()
    try:
        for cls in (UtilizationAdmissionController, _KeepsTheSpec):
            controller = cls(
                mci_graph, voice_registry, {"voice": 0.3}, routes
            )
            per_flow[cls] = bytes_per_wire_established_flow(
                controller, mci_pairs, flows
            )
            del controller
    finally:
        tracemalloc.stop()
    kept = per_flow[UtilizationAdmissionController]
    assert kept <= gate, f"an established flow keeps {kept:.0f} B alive"
    # The gate fires on a record that keeps the decoded spec per row.
    assert per_flow[_KeepsTheSpec] > 2 * gate, per_flow


def test_an_established_flow_keeps_a_row_not_an_object(
    mci, mci_graph, mci_pairs, voice_registry
):
    _gate_bytes_per_flow(6_000, mci, mci_graph, mci_pairs, voice_registry)


def test_a_just_doubled_table_keeps_a_row_not_an_object(
    mci, mci_graph, mci_pairs, voice_registry
):
    """The fill the flow table once doubled its rows at: the id dict
    is all that still grows with the flows."""
    _gate_bytes_per_flow(4_100, mci, mci_graph, mci_pairs, voice_registry)


# --------------------------------------------------------------------- #
# what a route row costs, from the running system
# --------------------------------------------------------------------- #

#: Ceiling on the bytes of a route-table row a served MCI process
#: reports (servers, length, pair code and a live-count pointer: 15 B):
#: 18 B, what a flow row cost when every flow had one.
MAX_ROW_BYTES = 18


def _scrape_stats(port):
    """``GET /stats`` from the telemetry endpoint, decoded."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n")
        raw = b""
        while chunk := conn.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.split(b" ", 2)[1] == b"200", head
    return json.loads(body)


def test_a_served_process_reports_what_a_flow_row_costs(tmp_path, mci_pairs):
    """A served process reports a route table that holds a row for
    every configured route from the start, at no more than
    ``MAX_ROW_BYTES`` a row, and that does not grow with the flows on
    those routes: two waves of flows over the same pairs leave
    ``flow_rows`` and ``flow_table_bytes`` where they were."""
    from serve_processes import ServiceProcess

    flows = 200
    sock = str(tmp_path / "s.sock")
    with ServiceProcess(
        socket_path=sock, topology="mci", metrics_port=0
    ) as server:
        server.start()
        with server.client() as client:
            stats = [client.stats()]
            for wave in range(2):
                client.batch([
                    {"op": "admit", "flow": {
                        "id": f"f{wave}-{i}", "cls": "voice",
                        "src": src, "dst": dst,
                    }}
                    for i, (src, dst) in enumerate(mci_pairs[:flows])
                ])
                stats.append(client.stats())
        port = re.search(
            r"telemetry endpoint on http://[^:]+:(\d+)/", server.read_log()
        )
        scraped = _scrape_stats(int(port.group(1)))
        assert server.terminate() == 0
    assert [s["established"] for s in stats] == [0, flows, 2 * flows]
    assert stats[0]["flow_rows"] >= len(mci_pairs)
    assert stats[0]["flow_table_bytes"] <= MAX_ROW_BYTES * stats[0]["flow_rows"]
    # The same two numbers after each wave, and from the scrape endpoint.
    for key in ("flow_rows", "flow_table_bytes"):
        assert {s[key] for s in stats} == {scraped[key]}
