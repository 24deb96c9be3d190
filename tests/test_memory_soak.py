"""Memory soak: deciding an op must not cost the server a byte it keeps.

The paper's run-time test keeps no per-flow state in the core and
nothing that grows with history; an admission server never restarts, so
anything retained per *decided* op is a leak with a rate.  The test
drives one stationary churn — a bit under 2k established flows, admits
and releases interleaved, every flow id unique — through a real
``UtilizationAdmissionController``, rotating its frames over the three
ways a ``MicroBatchCoalescer`` decides them (inline ``submit_bulk``;
queued with an ``AuditLog`` attached; with a ``Preemptor`` rescuing
rejected hard-RT arrivals), and asserts with ``tracemalloc`` that the
heap after 60k ops is within 64 KiB of the heap after 20k ops.
Retaining one decision record per admit costs about 170 bytes an op —
megabytes over the same window.  (``tracemalloc`` costs about a
microsecond per allocation, which is what makes this a ~6 s test.)

The measured window runs with the cycle collector **off**, and what the
collector finds afterwards must be nothing: a frame carrier that keeps
a reference cycle (``_Op -> _SlotFuture -> BulkSlots -> ops``) frees
nothing until a collection, which on a served workload is resident
memory — so it has to fail here, not at a benchmark bound.  A second
case drives whole bulk frames through an audited, obs-on
``AdmissionService`` under the same rule.
"""

import asyncio
import gc
import tracemalloc
from collections import deque

from repro.admission import UtilizationAdmissionController
from repro.control import Preemptor
from repro.errors import AdmissionError
from repro.routing.shortest import shortest_path_routes
from repro.service.audit import AuditLog
from repro.service.coalescer import (
    BULK_OP_ADMIT,
    BULK_OP_RELEASE,
    MicroBatchCoalescer,
)
from repro.traffic.flows import FlowSpec

WARM_OPS = 20_000
TOTAL_OPS = 60_000
FRAME_OPS = 512
RUN_OPS = 32
HARD_RT_EVERY = 128
ALPHA = 0.035
PATHS = ("inline", "queued_audited", "preempt")
ESTABLISHED = 2_000
MAX_GROWTH_BYTES = 64 * 1024


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
            coalescer.submit_bulk(slots, entries)
            # Audit switches the inline fast path off: every op queues.
            assert slots.remaining == (
                len(entries) if path == "queued_audited" else 0
            )
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
    tmp_path, mci, mci_graph, mci_pairs, voice_registry
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
            coalescers["queued_audited"].audit = audit
            growth, cycles, decided = await _soak(coalescers, churn)
        return (
            growth,
            cycles,
            decided,
            coalescers["preempt"].preempted_admits,
        )

    tracemalloc.start()
    try:
        growth, cycles, decided, preempted_admits = asyncio.run(
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


SERVED_WARM_FRAMES = 5
SERVED_FRAMES = 30
SERVED_FRAME_FLOWS = 64


def test_served_bulk_frames_leave_no_cycles(tmp_path):
    """Audited and obs-on, every op of a bulk frame queues and the
    server keeps the queued ops for the frame's request span: once the
    response is written nothing may still point at them."""
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
            # Admitted, then released: every op really queued.
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
# bytes per established flow
# --------------------------------------------------------------------- #

WIRE_FLOWS = 6_000
WIRE_FRAME_FLOWS = 1_024
#: Ceiling on what one established flow may keep alive.  What it must
#: keep: the decoded id string (~57 B), one slot of the id -> row dict
#: (~50 B at this fill), the row int (32 B) and ~75 B of columns, the
#: last two at the table's power-of-two capacity — 272 B here, at 6 000
#: flows in 8 192 rows.  A record that keeps the decoded ``FlowSpec``
#: per flow (the planted offender, and the parent of this test) is at
#: 830-840 B.
MAX_BYTES_PER_FLOW = 350


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


def _bytes_per_wire_established_flow(controller, pairs):
    """Establish ``WIRE_FLOWS`` flows the way a served process does —
    packed ``B`` frames encoded, then ``decode_payload_v2`` ->
    ``decode_bulk_subop`` -> ``submit_bulk``, so every string of every
    flow is freshly decoded — and return what the heap grew by per
    established flow."""
    from repro.service import protocol

    priorities = ("elastic", "soft_rt", "hard_rt", None)

    def frame(start):
        subops = []
        for i in range(start, min(start + WIRE_FRAME_FLOWS, WIRE_FLOWS)):
            src, dst = pairs[i % len(pairs)]
            subops.append(
                [0, f"wire-{i}", "voice", src, dst, None,
                 priorities[i % len(priorities)]]
            )
        return protocol.encode_bulk_request(start, subops)

    async def scenario():
        coalescer = MicroBatchCoalescer(controller, max_delay=0.0)
        coalescer.start()
        try:
            for start in range(0, WIRE_FLOWS, WIRE_FRAME_FLOWS):
                wire = frame(start)
                _tag, body = protocol.decode_payload_v2(
                    wire[protocol.FRAME_HEADER_BYTES:]
                )
                _rid, subops = protocol.parse_bulk_request(body)
                entries = [
                    (i, BULK_OP_ADMIT, protocol.decode_bulk_subop(sub)[1])
                    for i, sub in enumerate(subops)
                ]
                slots = coalescer.open_bulk(len(entries))
                coalescer.submit_bulk(slots, entries)
                assert slots.remaining == 0  # decided inline
                del wire, body, subops, entries, slots
        finally:
            await coalescer.stop()

    before = _traced_bytes()
    asyncio.run(scenario())
    growth = _traced_bytes() - before
    assert controller.num_established >= 5_000
    assert controller.verify_invariants() == []
    return growth / controller.num_established


def test_an_established_flow_keeps_a_row_not_an_object(
    mci, mci_graph, mci_pairs, voice_registry
):
    routes = shortest_path_routes(mci, mci_pairs)
    per_flow = {}
    tracemalloc.start()
    try:
        for cls in (UtilizationAdmissionController, _KeepsTheSpec):
            controller = cls(
                mci_graph, voice_registry, {"voice": 0.3}, routes
            )
            per_flow[cls] = _bytes_per_wire_established_flow(
                controller, mci_pairs
            )
            del controller
    finally:
        tracemalloc.stop()
    kept = per_flow[UtilizationAdmissionController]
    assert kept <= MAX_BYTES_PER_FLOW, (
        f"an established flow keeps {kept:.0f} B alive"
    )
    # The gate fires on a record that keeps the decoded spec per row.
    assert per_flow[_KeepsTheSpec] > 2 * MAX_BYTES_PER_FLOW, per_flow
