"""Micro-batch coalescing of admission requests.

The coalescer is the server's core.  Requests arrive as frames — a v1
``batch``, a v2 ``B`` frame, or a lone ``admit`` / ``release``, which is
a frame of one — and a frame that finds nothing undecided ahead of it is
decided on arrival, one
:meth:`~repro.admission.base.AdmissionController.admit_batch_routed` /
:meth:`~repro.admission.base.AdmissionController.release_batch` call
per run of its ops.  Only ops submitted behind undecided ones, or while
the coalescer is paused, go through an :class:`asyncio.Queue`, whose
drain loop waits up to ``max_delay`` seconds for :data:`MAX_BATCH` of them.
Every outcome lands in a slot of its frame's :class:`BulkSlots`.

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
two callers, and both settle the same slots.  The controller only
mutates inside ``_decide`` — snapshots taken between event-loop
callbacks therefore see a consistent ledger.

Telemetry is per ``_decide`` call, whichever caller made it: one audit
``frame`` line, one ``service.batch`` span, one update of each batch
metric.  Neither an audit log nor observability changes which caller
runs.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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

if TYPE_CHECKING:
    # Reached through the log the server hands in (``--audit``): a server
    # without one never loads the module.
    from .audit import AuditLog

__all__ = [
    "MicroBatchCoalescer",
    "BulkSlots",
    "BULK_OP_ADMIT",
    "BULK_OP_RELEASE",
]

#: Batch spans list at most this many distinct request span ids; larger
#: batches record how many more there were instead of the tail.
_SPAN_LINK_CAP = 64

#: Upper bound on ops decided per decision step: a larger frame is
#: decided in chunks of this many.
MAX_BATCH = 1024

logger = logging.getLogger("repro.service")

#: The ``kind`` of an :data:`Entry` (what
#: :meth:`MicroBatchCoalescer.submit_bulk` takes): an admit or a release.
BULK_OP_ADMIT = "admit"
BULK_OP_RELEASE = "release"


class _Stamp:
    """Telemetry marks of what one :meth:`MicroBatchCoalescer._decide`
    call decided for a request: a queued op, or one :data:`MAX_BATCH` chunk
    of a frame decided inline.

    ``span_hex`` is the request's span id (the batch span links it);
    :meth:`~MicroBatchCoalescer._decide` fills in when the step started
    and ended and the id of its batch span, so the request span can
    report queue-wait and execute stages and link back.
    """

    __slots__ = (
        "span_hex",
        "enqueued_at",
        "dequeued_at",
        "decided_at",
        "batch_hex",
    )

    def __init__(
        self,
        span_hex: Optional[str] = None,
        enqueued_at: Optional[float] = None,
    ):
        self.span_hex = span_hex
        self.enqueued_at = (
            time.perf_counter() if enqueued_at is None else enqueued_at
        )
        self.dequeued_at = 0.0
        self.decided_at = 0.0
        self.batch_hex: Optional[str] = None


#: One op as submitted and decided: ``(slot, kind, payload)`` — its
#: slot in the frame, :data:`BULK_OP_ADMIT` or :data:`BULK_OP_RELEASE`,
#: and a :class:`FlowSpec` for an admit or a flow id for a release.
Entry = Tuple[int, str, Any]


class _Op(_Stamp):
    """One queued op: an admit or a release."""

    __slots__ = ("entry", "future", "trace")

    def __init__(
        self,
        entry: Entry,
        future: Union[asyncio.Future, _SlotFuture],
        trace: Optional[dict] = None,
        span_hex: Optional[str] = None,
        enqueued_at: Optional[float] = None,
    ):
        super().__init__(span_hex, enqueued_at)
        #: The submitted entry itself, which :meth:`_decide` reads.
        self.entry = entry
        self.future = future
        #: The frame's wire trace object (``TraceContext.to_obj()``).
        self.trace = trace


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
        if self.remaining == 0:
            self._done()

    def _done(self) -> None:
        """Every slot holds its outcome: release the waiter."""
        _settle(self.waiter, None)

    async def wait(self) -> None:
        """Block until every queued slot has settled."""
        if self.remaining:
            await self.waiter


class _LoneSlot(BulkSlots):
    """A frame of one whose waiter resolves to the one outcome, or
    raises it: what :meth:`MicroBatchCoalescer.submit_admit` and
    :meth:`~MicroBatchCoalescer.submit_release` hand back."""

    __slots__ = ()

    def _done(self) -> None:
        _settle(self.waiter, self.outcomes[0])


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
    """Decide admission frames in sequential-identical batches: on
    arrival when nothing is undecided, through the queue otherwise.

    Parameters
    ----------
    controller:
        The slot-ledger controller
        (:class:`~repro.admission.utilization.UtilizationAdmissionController`
        or a shard of one) every op is decided against.
    max_delay:
        Seconds the drain loop waits for a queued batch to fill once at
        least one op is pending.  ``0`` coalesces only what is already
        queued.  A frame decided on arrival never waits.
    """

    def __init__(
        self,
        controller: UtilizationAdmissionController,
        *,
        max_delay: float = 0.002,
    ):
        if max_delay < 0:
            raise ServiceError(
                f"max_delay must be >= 0, got {max_delay}"
            )
        self.controller = controller
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
        """Decide everything queued, then stop the drain loop."""
        self._closed = True
        self.resume()
        if self._task is not None:
            await self._queue.put(None)
            await self._task
            self._task = None

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit_admit(self, flow: FlowSpec) -> "asyncio.Future":
        """Submit an admission as a frame of one; the future resolves
        to its :class:`~repro.admission.base.AdmissionDecision` (or an
        :class:`~repro.errors.AdmissionError`-family exception, exactly
        where the sequential API would raise)."""
        return self._submit_lone(BULK_OP_ADMIT, flow)

    def submit_release(self, flow_id: Hashable) -> "asyncio.Future":
        """Submit a release as a frame of one; the future resolves to
        ``True``."""
        return self._submit_lone(BULK_OP_RELEASE, flow_id)

    def _submit_lone(self, kind: str, payload: Any) -> "asyncio.Future":
        slots = _LoneSlot(1, self)
        self.submit_bulk(slots, [(0, kind, payload)])
        if not slots.remaining:  # decided inline
            slots._done()
        return slots.waiter

    def open_bulk(self, size: int) -> BulkSlots:
        """Result collector for one bulk frame of ``size`` sub-ops."""
        return BulkSlots(size, self)

    def submit_bulk_admit(
        self, slots: BulkSlots, index: int, flow: FlowSpec
    ) -> None:
        """Enqueue one bulk admit; the outcome lands in ``slots``."""
        self._submit_slot(
            _Op((index, BULK_OP_ADMIT, flow), _SlotFuture(slots, index)), slots
        )

    def submit_bulk_release(
        self, slots: BulkSlots, index: int, flow_id: Hashable
    ) -> None:
        """Enqueue one bulk release; the outcome lands in ``slots``."""
        self._submit_slot(
            _Op((index, BULK_OP_RELEASE, flow_id), _SlotFuture(slots, index)), slots
        )

    def submit_bulk(
        self,
        slots: BulkSlots,
        entries: List[Entry],
        *,
        trace: Optional[TraceContext] = None,
        span_hex: Optional[str] = None,
    ) -> List[_Stamp]:
        """Submit one frame's ops, deciding them inline when safe.

        ``entries`` are :data:`Entry` triples ``(slot_index, kind,
        payload)`` in frame order — a :class:`FlowSpec` payload for
        admits, a flow id for releases; slots the server failed during
        decode are already filled and simply absent here.  They are the
        one record per op: :meth:`_decide` reads them as they are, and a
        queued op keeps its entry.  ``trace`` / ``span_hex`` are the
        frame's wire trace context and request span (the audit log and
        the batch span read them); the context is converted to its wire
        object once, here, for every op of the frame.

        When nothing else is undecided (``pending == 0``), the frame is
        decided synchronously right here: :meth:`_decide` runs on the
        frame's own ops and the outcomes land in ``slots`` with no
        per-op queue traffic or future objects.  This is bit-identical
        to the queued path: with no pending ops, the arrival order of
        every undecided op is exactly this frame's order, and batch
        *composition* never affects decisions (the batch kernels are
        sequential-identical by the differential contract) — only op
        order does.  A frame larger than :data:`MAX_BATCH` is decided
        in chunks of that many, so the documented per-batch bound holds;
        one that fits is decided as it is, not copied.  Only ordering
        (an undecided op ahead of the frame) and the pause/stop staging
        controls queue one op per entry instead; an audit log or
        observability never does, because ``_decide`` writes the audit
        frame and the batch telemetry wherever it runs.

        Returns the telemetry stamps of the frame: one per inline chunk,
        or the queued ops themselves, so the server's request span can
        read the stages and the batch span.  Nothing here keeps that
        list, so a finished frame leaves no
        ``_Op -> _SlotFuture -> BulkSlots -> ops`` cycle behind.
        """
        if self._closed:
            raise ServiceError("coalescer is stopped")
        wire = None if trace is None else trace.to_obj()
        if self.pending == 0 and self._paused.is_set():
            outcomes = slots.outcomes
            stamps = []
            whole = len(entries) <= MAX_BATCH
            for start in range(0, len(entries), MAX_BATCH):
                chunk = entries if whole else entries[start : start + MAX_BATCH]
                stamp = _Stamp(span_hex)
                decided = self._decide(chunk, [wire] * len(chunk), (stamp,))
                for entry, outcome in zip(chunk, decided):
                    outcomes[entry[0]] = outcome
                stamps.append(stamp)
            return stamps
        enqueued_at = time.perf_counter()
        ops = [
            _Op(
                entry,
                _SlotFuture(slots, entry[0]),
                trace=wire,
                span_hex=span_hex,
                enqueued_at=enqueued_at,
            )
            for entry in entries
        ]
        for op in ops:
            self._submit_slot(op, slots)
        return ops

    def _submit_slot(self, op: _Op, slots: BulkSlots) -> None:
        if self._closed:
            raise ServiceError("coalescer is stopped")
        # Backpressure accounting is per op; BulkSlots._settle takes it
        # back when the op is decided.
        self.pending += 1
        slots.remaining += 1
        self._queue.put_nowait(op)

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
                    _settle(op.future, exc)
            if stop:
                return

    async def _fill(self, batch: List[_Op]) -> bool:
        """Drain up to :data:`MAX_BATCH` ops into ``batch``.

        Greedily takes whatever is already queued, then waits out the
        remaining coalescing window.  Returns True when the stop
        sentinel was encountered (the batch is still processed).
        """
        queue = self._queue
        while len(batch) < MAX_BATCH:
            try:
                op = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if op is None:
                return True
            batch.append(op)
        if len(batch) >= MAX_BATCH or self.max_delay <= 0:
            return False
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_delay
        while len(batch) < MAX_BATCH:
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
        """The drain loop's caller of :meth:`_decide`: decide the ops,
        settle every future from its outcome, and record how long each
        decided op waited in the queue."""
        outcomes = self._decide(
            [op.entry for op in ops], [op.trace for op in ops], ops
        )
        for op, outcome in zip(ops, outcomes):
            _settle(op.future, outcome)
        if OBS.enabled:
            hist = OBS.registry.histogram("repro_service_coalesce_seconds")
            for op in ops:
                hist.observe(op.decided_at - op.enqueued_at)

    def _decide(
        self,
        ops: Sequence[Entry],
        traces: Sequence[Optional[dict]],
        stamps: Sequence[_Stamp] = (),
    ) -> List[object]:
        """The one decision step: ordered ops in, ordered outcomes out.

        ``ops`` are the submitted :data:`Entry` triples (their slot is
        not read here); ``traces[i]`` is the wire object of op ``i``'s
        trace context (only the audit entries read it).
        The result holds, op for op, the
        :class:`~repro.admission.base.AdmissionDecision`, ``True`` for
        a release, or the exception the sequential API would have
        raised.  No ``await``, no futures, no queue: this is the only
        code in the service that calls the batch kernels, so the ledger
        only ever changes here.

        Ops are decided strictly in order, as maximal runs of one kind;
        an admit run is split where a flow id repeats.

        Each call is accounted for once, after its last run: one audit
        frame, one update of the batch metrics and one batch span
        (:meth:`_record_step`), and ``stamps`` (what the step decided
        for, see :class:`_Stamp`) get its start, end and span id.

        Never raises.  A poisoned batch (e.g. an op whose payload the
        wire layer failed to validate) fails its own undecided ops,
        never the caller's loop, and never un-decides a run that
        already committed.
        """
        t_start = time.perf_counter()
        n = len(ops)
        outcomes: List[object] = [None] * n
        entries: Optional[List[bytes]] = (
            None if self.audit is None else []
        )
        i = runs = 0
        try:
            while i < n:
                lo = i
                if ops[i][1] == BULK_OP_ADMIT:
                    seen: set = set()
                    while i < n and ops[i][1] == BULK_OP_ADMIT:
                        fid = ops[i][2].flow_id
                        if fid in seen:
                            # Split: this attempt must see the earlier
                            # occurrence's committed outcome first.
                            break
                        seen.add(fid)
                        i += 1
                    runs += 1
                    self._admit_run(ops, traces, range(lo, i), outcomes, entries)
                else:
                    while i < n and ops[i][1] == BULK_OP_RELEASE:
                        i += 1
                    runs += 1
                    self._release_run(ops, traces, range(lo, i), outcomes, entries)
        except Exception as exc:
            logger.exception("batch decision failed; failing batch")
            for j in range(n):
                if outcomes[j] is None:
                    outcomes[j] = exc
        now = time.perf_counter()
        self.batches += 1
        self.coalesced_ops += n
        self.largest_batch = max(self.largest_batch, n)
        batch_hex: Optional[str] = None
        try:
            if entries:
                assert self.audit is not None
                self.audit.record_frame(entries)
            if OBS.enabled:
                batch_hex = self._record_step(
                    ops, stamps, t_start, now, runs
                )
        except Exception:
            # The decisions stand (they are committed); only their
            # record is lost, and the caller must still settle them.
            logger.exception("recording a decision step failed")
        for stamp in stamps:
            stamp.dequeued_at = t_start
            stamp.decided_at = now
            stamp.batch_hex = batch_hex
        return outcomes

    def _record_step(
        self,
        ops: Sequence[Entry],
        stamps: Sequence[_Stamp],
        t_start: float,
        now: float,
        runs: int,
    ) -> str:
        """Histograms and span of one :meth:`_decide` call
        (observability on): one observation of each batch histogram,
        and one ``service.batch`` span naming the distinct request spans
        it decided for.  Returns the span's id.  The batch and
        preemption counts are :attr:`batches` and ``preempted_*``,
        which the server's scrape reads."""
        kinds = [op[1] for op in ops]
        admits, releases = kinds.count(BULK_OP_ADMIT), kinds.count(BULK_OP_RELEASE)
        reg = OBS.registry
        reg.histogram(
            "repro_service_batch_fill", buckets=DEFAULT_ITERATION_BUCKETS
        ).observe(admits + releases)
        # What is still queued behind this step (0 for an inline frame).
        reg.histogram(
            "repro_service_backlog", buckets=DEFAULT_DEPTH_BUCKETS
        ).observe(self._queue.qsize())
        batch_hex = new_span_id()
        # A frame's queued ops all carry its one request span id.
        linked = list(
            dict.fromkeys(s.span_hex for s in stamps if s.span_hex)
        )
        attrs: Dict[str, Any] = {
            "span_hex": batch_hex,
            "ops": admits + releases,
            "admits": admits,
            "releases": releases,
            "runs": runs,
            "request_spans": ",".join(linked[:_SPAN_LINK_CAP]),
        }
        if len(linked) > _SPAN_LINK_CAP:
            attrs["request_spans_truncated"] = len(linked) - _SPAN_LINK_CAP
        OBS.tracer.record_span(
            "service.batch", start=t_start, duration=now - t_start, **attrs
        )
        return batch_hex

    def _admit_run(
        self,
        ops: Sequence[Entry],
        traces: Sequence[Optional[dict]],
        run: range,
        outcomes: List[object],
        entries: Optional[List[bytes]],
    ) -> None:
        """One ``admit_batch_routed`` call for the ops at the positions
        ``run``, after filtering the requests the sequential API
        refuses with an exception — each fails alone, with that
        exception, and never reaches the controller's state.  Audit
        entries go to ``entries`` (``None``: no audit log)."""
        audit: AuditLog = self.audit  # type: ignore[assignment]  # only with entries
        controller = self.controller
        check_admit = controller.check_admit
        indices: List[int] = []
        flows: List[FlowSpec] = []
        routes: List = []
        for i in run:
            flow = ops[i][2]
            try:
                route = check_admit(flow)
            except ReproError as exc:
                outcomes[i] = exc
                if entries is not None:
                    entries.append(audit.admit_entry(
                        flow, False, error=str(exc), trace=traces[i]
                    ))
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
                if entries is not None:
                    entries.append(audit.admit_entry(
                        flow,
                        False,
                        error=f"{type(exc).__name__}: {exc}",
                        trace=traces[i],
                    ))
            return
        rescues: Dict[int, Tuple[Hashable, ...]] = {}
        if self.preemptor is not None:
            decisions = self._preempt_pass(
                flows, list(decisions), rescues
            )
        for i, decision in zip(indices, decisions):
            outcomes[i] = decision
        if entries is not None:
            self._admit_entries(
                flows,
                routes,
                [traces[i] for i in indices],
                decisions,
                rescues,
                entries,
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
            decisions[i] = outcome.decision
        return decisions

    def _admit_entries(
        self,
        flows: List[FlowSpec],
        routes: List,
        traces: List[Optional[dict]],
        decisions: List[AdmissionDecision],
        rescued: Dict[int, Tuple[Hashable, ...]],
        entries: List[bytes],
    ) -> None:
        """Audit entries of a run's committed admit decisions, with the
        route each flow occupies (or would have).

        Entries follow ledger order, which for a run is: the kernel's
        own decisions in run order first, then each preemption rescue
        as its victims' ``reason="preempted"`` releases followed by the
        rescued flow's admit.  Replaying the log therefore reconstructs
        the established set exactly — even when a victim was admitted
        by the same batch that evicted it.
        """
        audit: AuditLog = self.audit  # type: ignore[assignment]
        established = self.controller.is_established
        ordered = [
            i for i in range(len(flows)) if i not in rescued
        ] + sorted(rescued)
        for i in ordered:
            flow, trace, decision = flows[i], traces[i], decisions[i]
            for victim in rescued.get(i, ()):
                entries.append(audit.release_entry(
                    victim, True, reason="preempted", trace=trace
                ))
            # check_admit's route is the committed one — unless a rescue
            # of this run already evicted the flow again.
            route = routes[i]
            if decision.admitted and rescued and not established(flow.flow_id):
                route = None
            entries.append(audit.admit_entry(
                flow,
                decision.admitted,
                reason=decision.reason,
                route=route,
                trace=trace,
            ))

    def _release_run(
        self,
        ops: Sequence[Entry],
        traces: Sequence[Optional[dict]],
        run: range,
        outcomes: List[object],
        entries: Optional[List[bytes]],
    ) -> None:
        """One ``release_batch`` call for the ops at the positions
        ``run``, after failing the ids the sequential API would."""
        audit: AuditLog = self.audit  # type: ignore[assignment]  # only with entries
        controller = self.controller
        indices: List[int] = []
        fids: List[Hashable] = []
        run_ids: set = set()
        for i in run:
            fid = ops[i][2]
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
                if entries is not None:
                    entries.append(audit.release_entry(
                        fid,
                        False,
                        error="not established",
                        trace=traces[i],
                    ))
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
            if entries is not None:
                entries.append(audit.release_entry(
                    fid,
                    error is None,
                    error=error,
                    trace=traces[i],
                ))


def _settle(
    future: Union[asyncio.Future, _SlotFuture], outcome: object
) -> None:
    """Resolve ``future`` from one :meth:`_decide` outcome."""
    if not future.done():
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)
