"""Micro-batch coalescing of admission requests.

The coalescer is the server's core: requests arriving within a
configurable window (``max_delay`` seconds, ``max_batch`` requests) are
drained from an :class:`asyncio.Queue` into a single
:meth:`~repro.admission.base.AdmissionController.admit_batch` /
:meth:`~repro.admission.base.AdmissionController.release_batch` call, so
per-request cost amortizes exactly as the batch-kernel benchmarks
demonstrated, and every caller's future resolves with its own decision.

**Decisions are bit-identical to sequential submission.**  The drained
ops are processed strictly in arrival order, grouped into maximal
consecutive runs of the same kind (the batch kernels are
sequential-identical by the PR 4 differential contract).  Two wrinkles
preserve exactness:

* an admit run is **split** when a flow id repeats inside it — the
  second attempt must observe the first one's outcome (admitted ⇒
  "already established" error; rejected ⇒ a fresh attempt), so it is
  decided in a later batch after the first commits;
* a request the sequential API refuses with an exception fails alone,
  with that exception, and never touches state: every admit is put to
  :meth:`~repro.admission.base.AdmissionController.check_admit` (the
  controller's own statement of what ``admit()`` raises for) before its
  run is handed over, every release to ``is_established``.

All of that lives in one place, :meth:`MicroBatchCoalescer._decide`:
ordered ops in, ordered outcomes out, no ``await``, no futures, no
queue.  The drain loop and the inline branch of ``submit_bulk`` are its
two callers; they differ only in how an outcome reaches its caller (a
future per op, or a slot of the frame's :class:`BulkSlots`).  The
controller only mutates inside ``_decide`` — snapshots taken between
event-loop callbacks therefore see a consistent ledger.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

from ..admission.base import AdmissionDecision
from ..admission.utilization import UtilizationAdmissionController
from ..errors import AdmissionError, ReproError, ServiceError
from ..obs import (
    DEFAULT_DEPTH_BUCKETS,
    DEFAULT_ITERATION_BUCKETS,
    OBS,
    TraceContext,
    new_span_id,
)
from ..traffic.flows import FlowSpec
from .audit import AuditLog

__all__ = [
    "MicroBatchCoalescer",
    "BulkSlots",
    "BULK_OP_ADMIT",
    "BULK_OP_RELEASE",
]

#: Batch spans list at most this many linked request span ids; larger
#: batches record the count and a truncation flag instead of the tail.
_SPAN_LINK_CAP = 64

logger = logging.getLogger("repro.service")

#: Anything the drain loop can settle: a real asyncio future or a
#: bulk result slot (same done/set_result/set_exception surface).
ResultFuture = Union["asyncio.Future", "_SlotFuture"]

_ADMIT = "admit"
_RELEASE = "release"
_BARRIER = "barrier"

#: Public aliases for the bulk-entry ``kind`` field of
#: :meth:`MicroBatchCoalescer.submit_bulk`.
BULK_OP_ADMIT = _ADMIT
BULK_OP_RELEASE = _RELEASE


class _Op:
    """One queued request: an admit, a release, or a flush barrier.

    The telemetry fields (``trace``, ``span_hex``, timing marks,
    ``batch_hex``) are populated by the server / drain loop so a
    per-request span can report queue-wait and batch-execute stages and
    link to the batch span that decided it.
    """

    __slots__ = (
        "kind",
        "payload",
        "future",
        "enqueued_at",
        "trace",
        "span_hex",
        "dequeued_at",
        "decided_at",
        "batch_hex",
    )

    def __init__(
        self,
        kind: str,
        future: "ResultFuture",
        payload: Any = None,
        trace: Optional[TraceContext] = None,
        span_hex: Optional[str] = None,
        enqueued_at: Optional[float] = None,
    ):
        self.kind = kind
        #: A :class:`FlowSpec` for an admit, a flow id for a release.
        self.payload = payload
        self.future = future
        self.enqueued_at = (
            time.perf_counter() if enqueued_at is None else enqueued_at
        )
        self.trace = trace
        self.span_hex = span_hex
        self.dequeued_at = 0.0
        self.decided_at = 0.0
        self.batch_hex: Optional[str] = None


class BulkSlots:
    """Result collector for one frame's worth of coalesced ops.

    A frame (v1 ``batch`` or v2 ``B``) holds hundreds of sub-ops; giving
    each its own :class:`asyncio.Future` would pay ``call_soon``
    scheduling per op.  Instead every sub-op gets a :class:`_SlotFuture`
    writing into one shared ``outcomes`` list, and a single real future
    (``waiter``) fires when the last slot settles — one event-loop
    callback per frame, not per op.

    ``outcomes[i]`` holds the op's decision (an
    :class:`~repro.admission.base.AdmissionDecision`), ``True`` for a
    release, or the exception the sequential API would have raised.
    Slots the server fails before submission are filled with
    :meth:`fill` and never enter the queue.
    """

    __slots__ = ("outcomes", "remaining", "waiter", "_coalescer")

    def __init__(self, size: int, coalescer: "MicroBatchCoalescer"):
        self.outcomes: List[object] = [None] * size
        self.remaining = 0
        self.waiter: "asyncio.Future" = (
            asyncio.get_running_loop().create_future()
        )
        self._coalescer = coalescer

    def fill(self, index: int, outcome: object) -> None:
        """Settle a slot inline (pre-submission validation failure)."""
        self.outcomes[index] = outcome

    def _settle(self, index: int, outcome: object) -> None:
        self.outcomes[index] = outcome
        self._coalescer.pending -= 1
        self.remaining -= 1
        if self.remaining == 0 and not self.waiter.done():
            self.waiter.set_result(None)

    async def wait(self) -> None:
        """Block until every queued slot has settled."""
        if self.remaining:
            await self.waiter


class _SlotFuture:
    """Future-shaped result slot (duck-typed for :func:`_settle`).

    Implements exactly the three methods the drain loop touches —
    ``done`` / ``set_result`` / ``set_exception`` — settling its
    :class:`BulkSlots` slot synchronously instead of scheduling an
    event-loop callback per op.
    """

    __slots__ = ("slots", "index", "_done")

    def __init__(self, slots: BulkSlots, index: int):
        self.slots = slots
        self.index = index
        self._done = False

    def done(self) -> bool:
        return self._done

    def set_result(self, value: object) -> None:
        self._done = True
        self.slots._settle(self.index, value)

    def set_exception(self, exc: BaseException) -> None:
        self._done = True
        self.slots._settle(self.index, exc)


class MicroBatchCoalescer:
    """Queue admission ops; decide them in sequential-identical batches.

    Parameters
    ----------
    controller:
        The slot-ledger controller
        (:class:`~repro.admission.utilization.UtilizationAdmissionController`
        or a shard of one) every op is decided against.
    max_batch:
        Upper bound on ops decided per drain.
    max_delay:
        Seconds the drain loop waits for the batch to fill once at
        least one op is pending.  ``0`` coalesces only what is already
        queued (greedy, no added latency).
    """

    def __init__(
        self,
        controller: UtilizationAdmissionController,
        *,
        max_batch: int = 1024,
        max_delay: float = 0.002,
    ):
        if max_batch < 1:
            raise ServiceError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        if max_delay < 0:
            raise ServiceError(
                f"max_delay must be >= 0, got {max_delay}"
            )
        self.controller = controller
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        #: Optional decision audit log; the server assigns it so every
        #: admit/release decided here is recorded at commit time.
        self.audit: Optional[AuditLog] = None
        #: Optional :class:`repro.control.Preemptor`; when set, a
        #: rejected arrival whose priority the preemption policy admits
        #: gets one eviction attempt before its rejection is final.
        #: Runs inside the no-await decision sections, so snapshots
        #: still observe a consistent ledger.
        self.preemptor: Optional[Any] = None
        #: Lifetime preemption counters mirrored into ``stats``.
        self.preempted_flows = 0
        self.preempted_admits = 0
        self._queue: "asyncio.Queue[Optional[_Op]]" = asyncio.Queue()
        self._task: Optional["asyncio.Task"] = None
        self._closed = False
        self._paused = asyncio.Event()
        self._paused.set()  # set == running
        #: Submitted-but-unresolved ops — the backpressure signal.
        self.pending = 0
        #: Lifetime counters mirrored into ``stats``.
        self.batches = 0
        self.coalesced_ops = 0
        self.largest_batch = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Spawn the drain loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-service-coalescer"
            )

    def pause(self) -> None:
        """Hold the drain loop before its next batch (testing/drain aid)."""
        self._paused.clear()

    def resume(self) -> None:
        self._paused.set()

    async def stop(self) -> None:
        """Flush everything queued, then stop the drain loop."""
        self._closed = True
        self.resume()
        if self._task is not None:
            await self._queue.put(None)
            await self._task
            self._task = None

    async def flush(self) -> None:
        """Wait until every op queued before this call is decided."""
        fut: "asyncio.Future" = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.put_nowait(_Op(_BARRIER, fut))
        await fut

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit_admit(
        self,
        flow: FlowSpec,
        *,
        trace: Optional[TraceContext] = None,
        span_hex: Optional[str] = None,
    ) -> "asyncio.Future":
        """Enqueue an admission; the future resolves to its
        :class:`~repro.admission.base.AdmissionDecision` (or an
        :class:`~repro.errors.AdmissionError`-family exception, exactly
        where the sequential API would raise)."""
        return self.submit_admit_op(
            flow, trace=trace, span_hex=span_hex
        ).future

    def submit_admit_op(
        self,
        flow: FlowSpec,
        *,
        trace: Optional[TraceContext] = None,
        span_hex: Optional[str] = None,
    ) -> _Op:
        """Like :meth:`submit_admit`, returning the queued op itself so
        the server can read its telemetry fields after resolution."""
        op = _Op(
            _ADMIT,
            asyncio.get_running_loop().create_future(),
            flow,
            trace=trace,
            span_hex=span_hex,
        )
        self._submit(op)
        return op

    def submit_release(
        self,
        flow_id: Hashable,
        *,
        trace: Optional[TraceContext] = None,
        span_hex: Optional[str] = None,
    ) -> "asyncio.Future":
        """Enqueue a release; the future resolves to ``True``."""
        return self.submit_release_op(
            flow_id, trace=trace, span_hex=span_hex
        ).future

    def submit_release_op(
        self,
        flow_id: Hashable,
        *,
        trace: Optional[TraceContext] = None,
        span_hex: Optional[str] = None,
    ) -> _Op:
        op = _Op(
            _RELEASE,
            asyncio.get_running_loop().create_future(),
            flow_id,
            trace=trace,
            span_hex=span_hex,
        )
        self._submit(op)
        return op

    def open_bulk(self, size: int) -> BulkSlots:
        """Result collector for one bulk frame of ``size`` sub-ops."""
        return BulkSlots(size, self)

    def submit_bulk_admit(
        self, slots: BulkSlots, index: int, flow: FlowSpec
    ) -> None:
        """Enqueue one bulk admit; the outcome lands in ``slots``."""
        self._submit_slot(
            _Op(_ADMIT, _SlotFuture(slots, index), flow), slots
        )

    def submit_bulk_release(
        self, slots: BulkSlots, index: int, flow_id: Hashable
    ) -> None:
        """Enqueue one bulk release; the outcome lands in ``slots``."""
        self._submit_slot(
            _Op(_RELEASE, _SlotFuture(slots, index), flow_id), slots
        )

    def submit_bulk(
        self,
        slots: BulkSlots,
        entries: List[Tuple[int, str, Any]],
        *,
        trace: Optional[TraceContext] = None,
        span_hex: Optional[str] = None,
    ) -> List[_Op]:
        """Submit one frame's ops, deciding them inline when safe.

        ``entries`` are ``(slot_index, kind, payload)`` triples in frame
        order — a :class:`FlowSpec` payload for admits, a flow id for
        releases; slots the server failed during decode are already
        filled and simply absent here.  ``trace`` / ``span_hex`` are the
        frame's wire trace context and request span; every op that has
        to queue carries them (the audit log and the batch span read
        them).

        When nothing else is undecided (``pending == 0``), the frame is
        decided synchronously right here: :meth:`_decide` runs on the
        frame's own ops and the outcomes land in ``slots`` with no
        per-op queue traffic or future objects.  This is bit-identical
        to the queued path: with no pending ops, the arrival order of
        every undecided op is exactly this frame's order, and batch
        *composition* never affects decisions (the batch kernels are
        sequential-identical by the differential contract) — only op
        order does.  The frame is chunked by ``max_batch`` so the
        documented per-batch bound holds.  The telemetry-rich
        configurations (audit log, live metrics) and the pause/stop
        staging controls queue one op per entry instead: the per-op
        stamps and batch spans only exist in the drain loop, and the
        benchmark defines its audited workload as "every op is queued".

        Returns the ops that were queued (none when decided inline) so
        the server can read their telemetry stamps.  Nothing here keeps
        that list, so a finished frame leaves no
        ``_Op -> _SlotFuture -> BulkSlots -> ops`` cycle behind.
        """
        if self._closed:
            raise ServiceError("coalescer is stopped")
        if (
            self.pending == 0
            and self._paused.is_set()
            and self.audit is None
            and not OBS.enabled
        ):
            outcomes = slots.outcomes
            for start in range(0, len(entries), self.max_batch):
                chunk = entries[start : start + self.max_batch]
                decided = self._decide(
                    [(kind, payload, None) for _, kind, payload in chunk]
                )
                for entry, outcome in zip(chunk, decided):
                    outcomes[entry[0]] = outcome
            return []
        enqueued_at = time.perf_counter()
        ops = [
            _Op(
                kind,
                _SlotFuture(slots, index),
                payload,
                trace=trace,
                span_hex=span_hex,
                enqueued_at=enqueued_at,
            )
            for index, kind, payload in entries
        ]
        for op in ops:
            self._submit_slot(op, slots)
        return ops

    def _submit_slot(self, op: _Op, slots: BulkSlots) -> None:
        if self._closed:
            raise ServiceError("coalescer is stopped")
        # Backpressure accounting is per op, exactly like `_submit`;
        # the decrement happens in BulkSlots._settle instead of a
        # future done-callback.
        self.pending += 1
        slots.remaining += 1
        self._queue.put_nowait(op)

    def _submit(self, op: _Op) -> "asyncio.Future":
        if self._closed:
            raise ServiceError("coalescer is stopped")
        self.pending += 1
        op.future.add_done_callback(self._on_done)
        self._queue.put_nowait(op)
        return op.future

    def _on_done(self, _future: "asyncio.Future") -> None:
        self.pending -= 1

    # ------------------------------------------------------------------ #
    # drain loop
    # ------------------------------------------------------------------ #

    async def _run(self) -> None:
        queue = self._queue
        while True:
            head = await queue.get()
            await self._paused.wait()
            if head is None:
                return
            batch = [head]
            stop = await self._fill(batch)
            try:
                self._process(batch)
            except Exception as exc:
                # Defensive: `_decide` fails a poisoned batch's ops
                # itself, so this only fires when settling or the
                # telemetry block blows up.  Either way the drain loop
                # must survive — its death would wedge every queued and
                # future request.  Fail whoever is still undecided and
                # keep draining.
                logger.exception("batch settlement failed; failing batch")
                for op in batch:
                    _settle(
                        op.future, True if op.kind == _BARRIER else exc
                    )
            if stop:
                return

    async def _fill(self, batch: List[_Op]) -> bool:
        """Drain up to ``max_batch`` ops into ``batch``.

        Greedily takes whatever is already queued, then waits out the
        remaining coalescing window.  Returns True when the stop
        sentinel was encountered (the batch is still processed).
        """
        queue = self._queue
        while len(batch) < self.max_batch:
            try:
                op = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if op is None:
                return True
            batch.append(op)
        if len(batch) >= self.max_batch or self.max_delay <= 0:
            return False
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_delay
        while len(batch) < self.max_batch:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            try:
                op = await asyncio.wait_for(queue.get(), remaining)
            except asyncio.TimeoutError:
                break
            if op is None:
                return True
            batch.append(op)
        return False

    # ------------------------------------------------------------------ #
    # batch decision (synchronous — no awaits, consistent ledger)
    # ------------------------------------------------------------------ #

    def _process(self, ops: List[_Op]) -> None:
        """The drain loop's caller of :meth:`_decide`: stamp the ops,
        settle every future from its outcome, record the telemetry."""
        t_start = time.perf_counter()
        for op in ops:
            op.dequeued_at = t_start
        outcomes = self._decide(
            [(op.kind, op.payload, op.trace) for op in ops]
        )
        now = time.perf_counter()
        for op, outcome in zip(ops, outcomes):
            op.decided_at = now
            _settle(op.future, outcome)
        if not OBS.enabled:
            return
        # A flush barrier is not a decided op: it is left out of every
        # batch statistic, and a barrier-only drain records none.
        ops = [op for op in ops if op.kind != _BARRIER]
        if ops:
            reg = OBS.registry
            reg.counter("repro_service_batches_total").inc()
            reg.histogram(
                "repro_service_batch_fill",
                buckets=DEFAULT_ITERATION_BUCKETS,
            ).observe(len(ops))
            reg.gauge("repro_service_queue_depth").set(self.pending)
            hist = reg.histogram("repro_service_coalesce_seconds")
            for op in ops:
                hist.observe(now - op.enqueued_at)
            reg.histogram(
                "repro_service_backlog",
                buckets=DEFAULT_DEPTH_BUCKETS,
            ).observe(max(self.pending, 0))
            tracer = OBS.tracer
            if tracer is not None:
                # One batch-kernel span linking the request spans it
                # decided; callers link back via ``op.batch_hex``.
                batch_hex = new_span_id()
                linked = [
                    op.span_hex for op in ops if op.span_hex is not None
                ]
                attrs = {
                    "span_hex": batch_hex,
                    "ops": len(ops),
                    "admits": sum(
                        1 for op in ops if op.kind == _ADMIT
                    ),
                    "releases": sum(
                        1 for op in ops if op.kind == _RELEASE
                    ),
                    "request_spans": ",".join(linked[:_SPAN_LINK_CAP]),
                }
                if len(linked) > _SPAN_LINK_CAP:
                    attrs["request_spans_truncated"] = (
                        len(linked) - _SPAN_LINK_CAP
                    )
                tracer.record_span(
                    "service.batch",
                    start=t_start,
                    duration=now - t_start,
                    **attrs,
                )
                for op in ops:
                    op.batch_hex = batch_hex

    def _decide(
        self, ops: List[Tuple[str, Any, Optional[TraceContext]]]
    ) -> List[object]:
        """The one decision step: ordered ops in, ordered outcomes out.

        ``ops`` are ``(kind, payload, trace)`` triples — a
        :class:`FlowSpec` for an admit, a flow id for a release, the
        caller's wire trace context (only the audit records read it).
        The result holds, op for op, the
        :class:`~repro.admission.base.AdmissionDecision`, ``True`` for
        a release, or the exception the sequential API would have
        raised.  No ``await``, no futures, no queue: this is the only
        code in the service that calls the batch kernels, so the ledger
        only ever changes here.

        Ops are decided strictly in order, as maximal runs of one kind;
        an admit run is split where a flow id repeats.  A flush barrier
        yields ``True`` and is not an op — the batch counters skip it.

        Never raises.  A poisoned batch (e.g. an op whose payload the
        wire layer failed to validate) fails its own undecided ops,
        never the caller's loop, and never un-decides a run that
        already committed.
        """
        n = len(ops)
        outcomes: List[object] = [None] * n
        i = barriers = 0
        try:
            while i < n:
                kind = ops[i][0]
                lo = i
                if kind == _ADMIT:
                    seen: set = set()
                    while i < n and ops[i][0] == _ADMIT:
                        fid = ops[i][1].flow_id
                        if fid in seen:
                            # Split: this attempt must see the earlier
                            # occurrence's committed outcome first.
                            break
                        seen.add(fid)
                        i += 1
                    self._admit_run(ops[lo:i], lo, outcomes)
                elif kind == _RELEASE:
                    while i < n and ops[i][0] == _RELEASE:
                        i += 1
                    self._release_run(ops[lo:i], lo, outcomes)
                else:
                    outcomes[i] = True
                    barriers += 1
                    i += 1
        except Exception as exc:
            logger.exception("batch decision failed; failing batch")
            for j, op in enumerate(ops):
                if outcomes[j] is not None:
                    continue
                if op[0] == _BARRIER:
                    barriers += 1
                    outcomes[j] = True
                else:
                    outcomes[j] = exc
        if n > barriers:
            self.batches += 1
            self.coalesced_ops += n - barriers
            self.largest_batch = max(self.largest_batch, n - barriers)
        return outcomes

    def _admit_run(
        self,
        run: List[Tuple[str, Any, Optional[TraceContext]]],
        lo: int,
        outcomes: List[object],
    ) -> None:
        """One ``admit_batch_routed`` call for ``run`` (ops ``lo...`` of
        the batch), after filtering the requests the sequential API
        refuses with an exception — each fails alone, with that
        exception, and never reaches the controller's state."""
        controller = self.controller
        check_admit = controller.check_admit
        audit = self.audit
        indices: List[int] = []
        flows: List[FlowSpec] = []
        routes: List = []
        for i, (_kind, flow, trace) in enumerate(run, lo):
            try:
                route = check_admit(flow)
            except ReproError as exc:
                outcomes[i] = exc
                if audit is not None:
                    audit.record_admit(
                        flow,
                        admitted=False,
                        error=str(exc),
                        trace=_trace_obj(trace),
                    )
                continue
            indices.append(i)
            flows.append(flow)
            routes.append(route)
        if not flows:
            return
        try:
            # check_admit per op (and _decide's split on a repeated id)
            # is exactly what admit_batch would re-validate, so the
            # routed entry point skips that second pass.
            decisions = controller.admit_batch_routed(flows, routes)
        except Exception as exc:  # unexpected: fail the run, not the batch
            logger.exception("admit kernel failed; failing its run")
            for i, flow in zip(indices, flows):
                outcomes[i] = exc
                if audit is not None:
                    audit.record_admit(
                        flow,
                        admitted=False,
                        error=f"{type(exc).__name__}: {exc}",
                        trace=_trace_obj(run[i - lo][2]),
                    )
            return
        rescues: Dict[int, Tuple[Hashable, ...]] = {}
        if self.preemptor is not None:
            decisions = self._preempt_pass(
                flows, list(decisions), rescues
            )
        for i, decision in zip(indices, decisions):
            outcomes[i] = decision
        if audit is not None:
            self._audit_admits(
                flows,
                routes,
                [_trace_obj(run[i - lo][2]) for i in indices],
                decisions,
                rescues,
            )

    def _preempt_pass(
        self,
        flows: List[FlowSpec],
        decisions: List[AdmissionDecision],
        rescues: Dict[int, Tuple[Hashable, ...]],
    ) -> List[AdmissionDecision]:
        """Give each rejected, preemption-eligible flow one eviction
        attempt, swapping successful re-admit decisions in place.

        ``rescues`` collects ``index -> evicted ids`` for every swapped
        decision, so the audit step can record each rescue *after* the
        kernel's own admits — a victim admitted earlier in the same
        batch must appear in the log as admitted before its preempted
        release.
        """
        preemptor = self.preemptor
        assert preemptor is not None
        eligible = preemptor.policy.admit_priorities
        for i, decision in enumerate(decisions):
            if decision.admitted:
                continue
            flow = flows[i]
            if flow.priority not in eligible:
                continue
            outcome = preemptor.try_admit(flow)
            if not outcome.admitted:
                continue
            rescues[i] = outcome.evicted
            # A stale rejection re-admitted with no sacrifice (an
            # earlier eviction in this pass freed the route) is not a
            # preempted admit — only count rescues that evicted.
            if outcome.evicted:
                self.preempted_flows += len(outcome.evicted)
                self.preempted_admits += 1
                if OBS.enabled:
                    reg = OBS.registry
                    reg.counter(
                        "repro_service_preempted_flows_total"
                    ).inc(len(outcome.evicted))
                    reg.counter(
                        "repro_service_preempted_admits_total"
                    ).inc()
            decisions[i] = outcome.decision
        return decisions

    def _audit_admits(
        self,
        flows: List[FlowSpec],
        routes: List,
        traces: List[Optional[dict]],
        decisions: List[AdmissionDecision],
        rescued: Dict[int, Tuple[Hashable, ...]],
    ) -> None:
        """Record each committed admit decision: the route the flow
        occupies (or would have), and the post-decision headroom of its
        class on that pair — "how many more such flows fit right now".

        Records follow ledger order, which for a batch is: the kernel's
        own decisions in batch order first, then each preemption rescue
        as its victims' ``reason="preempted"`` releases followed by the
        rescued flow's admit.  Replaying the log therefore reconstructs
        the established set exactly — even when a victim was admitted
        by the same batch that evicted it.
        """
        controller = self.controller
        established = controller.is_established
        audit = self.audit
        assert audit is not None
        ordered = [
            i for i in range(len(flows)) if i not in rescued
        ] + sorted(rescued)
        for i in ordered:
            flow, trace, decision = flows[i], traces[i], decisions[i]
            for victim in rescued.get(i, ()):
                audit.record_release(
                    victim, ok=True, reason="preempted", trace=trace
                )
            # check_admit's route is the committed one — unless a later
            # rescue of this batch already evicted the flow again.
            route = routes[i]
            if decision.admitted and not established(flow.flow_id):
                route = None
            try:
                headroom: Optional[int] = controller.headroom(
                    flow.class_name, (flow.source, flow.destination)
                )
            except ReproError:
                headroom = None
            audit.record_admit(
                flow,
                admitted=decision.admitted,
                reason=decision.reason,
                route=route,
                headroom=headroom,
                trace=trace,
            )

    def _release_run(
        self,
        run: List[Tuple[str, Any, Optional[TraceContext]]],
        lo: int,
        outcomes: List[object],
    ) -> None:
        """One ``release_batch`` call for ``run`` (ops ``lo...`` of the
        batch), after failing the ids the sequential API would."""
        controller = self.controller
        audit = self.audit
        indices: List[int] = []
        fids: List[Hashable] = []
        run_ids: set = set()
        for i, (_kind, fid, trace) in enumerate(run, lo):
            if controller.is_established(fid) and fid not in run_ids:
                run_ids.add(fid)
                indices.append(i)
                fids.append(fid)
            else:
                # Duplicate-in-run ids fail identically: sequentially,
                # the second release would find the flow gone.
                outcomes[i] = AdmissionError(
                    f"flow {fid!r} is not established"
                )
                if audit is not None:
                    audit.record_release(
                        fid,
                        ok=False,
                        error="not established",
                        trace=_trace_obj(trace),
                    )
        if not fids:
            return
        outcome: object = True
        error: Optional[str] = None
        try:
            controller.release_batch(fids)
        except Exception as exc:  # unexpected: fail the run, not the batch
            logger.exception("release kernel failed; failing its run")
            outcome, error = exc, f"{type(exc).__name__}: {exc}"
        for i, fid in zip(indices, fids):
            outcomes[i] = outcome
            if audit is not None:
                audit.record_release(
                    fid,
                    ok=error is None,
                    error=error,
                    trace=_trace_obj(run[i - lo][2]),
                )


def _trace_obj(trace: Optional[TraceContext]) -> Optional[dict]:
    return None if trace is None else trace.to_obj()


def _settle(future: "ResultFuture", outcome: object) -> None:
    """Resolve ``future`` from one :meth:`_decide` outcome."""
    if not future.done():
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)


# Re-export for annotation convenience in the server module.
Decision = AdmissionDecision
