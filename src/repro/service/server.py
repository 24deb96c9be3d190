"""Asyncio admission-control server.

:class:`AdmissionService` fronts a slot-ledger admission controller
(:class:`~repro.admission.utilization.UtilizationAdmissionController`,
or a shard of one) with the wire protocol of
:mod:`repro.service.protocol` over TCP or a Unix socket.  Framing,
negotiation and response writing belong to
:mod:`repro.service.conn`; this class is its handler: each parsed frame
(a lone admit or release is a frame of one) hands its admits/releases
to the :class:`~repro.service.coalescer.MicroBatchCoalescer`
**synchronously, in frame order** — on an idle coalescer that decides
them on the spot — and returns the small coroutine that writes the
response.

Around that core:

* **backpressure** — a connection's next frame is read once the one
  before it is decided, so excess load waits in the socket; nothing is
  refused for load here (the cluster router's per-link bound is what
  answers ``overloaded``);
* **graceful drain** — SIGTERM/SIGINT stop the listener, let in-flight
  requests finish, stop the coalescer, write a final snapshot, and
  close every connection;
* **crash-safe periodic snapshots** — the established-flow set (with
  committed routes pinned) is atomically persisted every
  ``snapshot_interval`` seconds, so a restarted server re-admits its
  flows on their original paths before accepting new traffic; a failed
  write is logged and counted, and the next tick writes again.

Listener, signals, drain skeleton and periodic steps are
:class:`~repro.service.conn.Lifecycle`'s; this class adds its own drain
steps (stop the coalescer, write the final snapshot, close the audit
log).
"""

from __future__ import annotations

import asyncio
import logging
import os
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Coroutine,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from ..admission.base import AdmissionDecision
from ..admission.utilization import UtilizationAdmissionController
from ..errors import (
    AdmissionError,
    ProtocolError,
    ReproError,
    ServiceError,
    TrafficError,
)
from ..obs import (
    OBS,
    TraceContext,
    new_span_id,
    trace_context_from_obj,
)
from ..obs.process import process_memory_mb, process_text
from . import protocol
from .coalescer import (
    BULK_OP_ADMIT,
    BULK_OP_RELEASE,
    MAX_BATCH,
    BulkSlots,
    MicroBatchCoalescer,
    _Stamp,
)
from .conn import Connection, ConnectionLayer, Lifecycle, check_lifecycle_config

if TYPE_CHECKING:
    from ..control.governor import GovernorSample
    from .audit import AuditLog
    from .snapshots import SnapshotStore

__all__ = ["ServiceConfig", "AdmissionService"]

logger = logging.getLogger("repro.service")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`AdmissionService`.

    Attributes
    ----------
    max_delay:
        The coalescing window of ops queued behind a paused coalescer:
        the drain loop waits up to that long for
        :data:`~repro.service.coalescer.MAX_BATCH` of them.  A frame
        that arrives with nothing undecided ahead of it never waits.
    snapshot_path / snapshot_interval:
        Crash-safe snapshot destination and period in seconds (None
        disables periodic writes; the final drain snapshot and the
        explicit ``snapshot`` op still honour ``snapshot_path``).
    metrics_host / metrics_port:
        Bind address of the HTTP telemetry endpoint
        (``/metrics``, ``/healthz``, ``/stats``).  ``None`` (default)
        disables it; ``0`` picks an ephemeral port.
    audit_path / audit_fsync_every / audit_max_bytes / audit_keep:
        Decision audit log (:mod:`repro.service.audit`): destination,
        fsync batching, and rotation policy.  ``None`` path disables
        auditing.
    drain_grace:
        Seconds the drain sequence keeps the listener (and
        ``/healthz``) answering *after* flipping to ``draining`` —
        the window a load balancer needs to observe the flip and stop
        routing before connections close.
    governor_interval:
        Seconds between alpha-governor control steps (only meaningful
        when an :class:`~repro.control.AlphaGovernor` is attached to the
        service; see :mod:`repro.control`).
    """

    max_delay: float = 0.002
    snapshot_path: Optional[str] = None
    snapshot_interval: Optional[float] = None
    metrics_host: str = "127.0.0.1"
    metrics_port: Optional[int] = None
    audit_path: Optional[str] = None
    audit_fsync_every: int = 256
    audit_max_bytes: Optional[int] = None
    audit_keep: int = 4
    drain_grace: float = 0.0
    governor_interval: float = 0.05
    #: Shard index when this server is one worker of a cluster (set by
    #: the supervisor; surfaces in ``stats`` for aggregation, has no
    #: behavioural effect here — the shard quota lives in the
    #: controller).
    worker_index: Optional[int] = None

    def __post_init__(self):
        check_lifecycle_config(self)
        if self.governor_interval <= 0:
            raise ServiceError("governor_interval must be positive")


class _ReqTele:
    """Per-request telemetry scratchpad (absent when telemetry is off).

    Carries the stage timestamps (receive, parsed, write-start) and the
    wire trace context / server span id so :meth:`AdmissionService.
    _finish_telemetry` can emit one span per request with per-stage
    timings without touching the telemetry-off fast path.
    """

    __slots__ = ("t_recv", "t_parsed", "t_write", "op", "trace", "span_hex")

    def __init__(self, t_recv: float):
        self.t_recv = t_recv
        self.t_parsed = t_recv
        self.t_write = t_recv
        self.op = "?"
        self.trace: Optional[TraceContext] = None
        self.span_hex: Optional[str] = None

    def parsed(self, op: str) -> None:
        """Stamp the end of decoding; mint the request's span id when
        spans are recorded, so the batch span can name it."""
        self.t_parsed = time.perf_counter()
        self.op = op
        if OBS.enabled:
            self.span_hex = new_span_id()


def _decoded(entry: Tuple[int, Any]) -> Tuple[int, Any]:
    """Sub-op decoder of a lone op's frame of one: its ``(kind,
    argument)`` entry was validated by :meth:`AdmissionService._begin`."""
    return entry


class AdmissionService(Lifecycle):
    """Serve admission control for one controller over one socket."""

    def __init__(
        self,
        controller: UtilizationAdmissionController,
        config: ServiceConfig = ServiceConfig(),
        *,
        governor: Optional[Any] = None,
        preemptor: Optional[Any] = None,
    ):
        if not isinstance(controller, UtilizationAdmissionController):
            # Snapshots, the governor's headroom signal and preemption
            # all read the slot ledger.
            raise ServiceError(
                f"controller {type(controller).__name__} holds no slot "
                "ledger; the service fronts a "
                "UtilizationAdmissionController"
            )
        self.controller = controller
        self.config = config
        self.coalescer = MicroBatchCoalescer(
            controller, max_delay=config.max_delay
        )
        #: Optional :class:`~repro.control.AlphaGovernor` driving the
        #: effective alpha along a pre-certified ladder; ``None`` keeps
        #: behaviour bit-identical to a governor-less build.
        self.governor = governor
        if preemptor is not None:
            self.coalescer.preemptor = preemptor
        # What a flag turns on is imported here, where the flag is acted
        # on: a server without it never loads the module (DESIGN.md,
        # "Import rule").
        self.store: Optional[SnapshotStore] = None
        if config.snapshot_path is not None:
            from .snapshots import SnapshotStore

            self.store = SnapshotStore(config.snapshot_path)
        self.audit: Optional[AuditLog] = None
        if config.audit_path is not None:
            from .audit import AuditLog

            self.audit = AuditLog(
                config.audit_path,
                fsync_every=config.audit_fsync_every,
                max_bytes=config.audit_max_bytes,
                keep=config.audit_keep,
            )
            self.coalescer.audit = self.audit
        self._snapshot_lock: Optional[asyncio.Lock] = None
        # Lifetime counters surfaced by the ``stats`` op.
        self.counts: Dict[str, int] = {
            "requests": 0,
            "admitted": 0,
            "rejected": 0,
            "released": 0,
            "errors": 0,
            "connections": 0,
            "snapshots": 0,
            "restored": 0,
            "governor_moves": 0,
        }
        # A frame over protocol.MAX_FRAME_BYTES earns ``frame_too_large``
        # and a clean connection close.
        self._layer = ConnectionLayer(self, protocol.MAX_FRAME_BYTES)

    # ------------------------------------------------------------------ #
    # lifecycle (conn.Lifecycle runs it; these are this server's steps)
    # ------------------------------------------------------------------ #

    async def start_unix(self, path: str) -> int:
        """Bind a Unix socket; returns the number of restored flows."""
        return await self._start(path=path)

    async def start_tcp(self, host: str, port: int) -> int:
        """Bind a TCP listener; returns the number of restored flows."""
        return await self._start(host=host, port=port)

    @property
    def port(self) -> Optional[int]:
        """Bound TCP port (None for Unix sockets)."""
        server = self._layer.server
        if server is None or not server.sockets:
            return None
        name = server.sockets[0].getsockname()
        return name[1] if isinstance(name, tuple) else None

    def _restore(self) -> int:
        """Crash recovery: re-admit the last durable snapshot (pinned
        routes) before the listener opens."""
        if self.store is None:
            return 0
        restored = self.store.restore_into(self.controller)
        self.counts["restored"] = restored
        if restored:
            logger.info(
                "restored %d flows from %s", restored, self.store.path
            )
        return restored

    async def _start(self, **where: Any) -> int:
        restored = self._restore()
        await self._layer.listen(**where)
        self._where = where.get("path") or f"{where['host']}:{self.port}"
        self.coalescer.start()
        if self.audit is not None:
            # Every launch marks what it resumed from, so the audit
            # sequence stays verifiable across restarts (including the
            # empty set on a fresh start).
            self.audit.mark_restore(
                f.flow_id for f in self.controller.established_flows
            )
        if self.config.snapshot_interval is not None:
            self.every(self.config.snapshot_interval, self.write_snapshot, "periodic snapshot")
        if self.governor is not None:
            self.every(self.config.governor_interval, self.governor_step, "governor step")
        await self._open()
        logger.info("admission service listening on %s", self._where)
        return restored

    async def _wind_down(self) -> None:
        await self._layer.quiesce()
        await self.coalescer.stop()
        if self.store is not None:
            await self.write_snapshot()

    def _let_go(self) -> None:
        # The exit snapshot (``serve --metrics-out``) holds every
        # series a scrape would.
        self.refresh_gauges()
        if self.audit is not None:
            self.audit.close()
        self._layer.close()

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #

    async def write_snapshot(self) -> int:
        """Persist the current state; returns the number of flows in
        the cut written.

        The one snapshot writer: the periodic step, the ``snapshot`` op
        and drain all come here, one write at a time, so two writes
        never share ``<path>.tmp`` and a caller that returns knows the
        file holds its cut or a newer one.  The cut is taken
        synchronously — the controller only mutates inside the
        coalescer's (await-free) batch step, so it is consistent — but
        serialization and fsync go to an executor so a large
        established set never stalls request handling.
        """
        assert self.store is not None
        from .snapshots import service_snapshot

        if self._snapshot_lock is None:
            # Made on the serving loop: before Python 3.10 a lock binds
            # the loop current when it is constructed.
            self._snapshot_lock = asyncio.Lock()
        async with self._snapshot_lock:
            snapshot = service_snapshot(self.controller)
            if self.audit is not None:
                # The marker (and every decision before it) is durable
                # before the write: a snapshot found after kill -9 is
                # always fully accounted for by the audit log.
                self.audit.mark_snapshot(
                    item["flow_id"] for item in snapshot["flows"]
                )
            write = asyncio.get_running_loop().run_in_executor(
                None, self.store.write, snapshot
            )
            try:
                await asyncio.shield(write)
            except asyncio.CancelledError:
                # Drain cancels the periodic step: the lock is held
                # until the file is written, or the next write would
                # start on the same tmp file.
                await write
                raise
            self.counts["snapshots"] += 1
        return len(snapshot["flows"])

    async def _snapshot_op(self, rid: protocol.RequestId) -> Dict[str, Any]:
        """The ``snapshot`` op's response, once its cut is on disk."""
        assert self.store is not None
        try:
            flows = await self.write_snapshot()
        except Exception as exc:
            logger.exception("snapshot op %r failed", rid)
            self.counts["errors"] += 1
            return protocol.error_response(
                rid, protocol.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        return protocol.ok_response(
            rid, {"path": self.store.path, "flows": flows}
        )

    # ------------------------------------------------------------------ #
    # adaptive overload control (alpha governor)
    # ------------------------------------------------------------------ #

    def governor_sample(self) -> GovernorSample:
        """Current congestion sample fed to the alpha governor.

        *Queue delay* is the backlog expressed in coalescing windows —
        ``pending / MAX_BATCH`` batches, each costing up to
        ``max_delay`` seconds — a deterministic proxy for how long a
        request admitted now has already waited.  *Headroom* is the
        free fraction of the **verified** slot capacity (not the
        degraded/effective one), so a DEC move never feeds back into
        its own pressure signal.
        """
        from ..control.governor import GovernorSample

        pending = self.coalescer.pending
        per_batch = max(self.config.max_delay, 1e-4)
        queue_delay = (pending / MAX_BATCH) * per_batch
        return GovernorSample(
            queue_delay=queue_delay,
            headroom=self.controller.ledger.verified_headroom(),
        )

    def governor_step(self) -> Optional[Dict[str, float]]:
        """Run one governor observation; applies any rung move to the
        controller.  Returns the newly applied per-class alphas, or
        None when the governor held.  Synchronous (no awaits), so the
        ledger transition is atomic with respect to batch decisions."""
        governor = self.governor
        if governor is None:
            return None
        alphas = governor.observe(self.governor_sample())
        if alphas is None:
            return None
        self.controller.limit(None if governor.at_top else alphas)
        self.counts["governor_moves"] += 1
        logger.info(
            "governor moved to rung %d (alpha=%.4f)", governor.rung, governor.effective_alpha
        )
        return alphas

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    def frame_context(self) -> "Optional[_ReqTele]":
        """Per-frame telemetry scratchpad (``None`` with telemetry
        off), stamped before the frame is decoded."""
        if OBS.enabled:
            return _ReqTele(time.perf_counter())
        return None

    def begin_request(
        self,
        conn: Connection,
        request: protocol.Request,
        tele: "Optional[_ReqTele]",
    ) -> Coroutine[Any, Any, None]:
        """Begin one parsed request; its response coroutine."""
        if tele is not None:
            tele.parsed(request.op)
            tele.trace = trace_context_from_obj(
                request.body.get("trace")
            )
        return self._finish(
            request, self._begin(request, tele), conn, tele
        )

    # ------------------------------------------------------------------ #
    # frames: v1 ``batch``, v2 ``B`` and a lone op share one carrier
    # ------------------------------------------------------------------ #

    def begin_bulk(
        self,
        conn: Connection,
        rid: protocol.RequestId,
        subops: list,
        tele: "Optional[_ReqTele]",
    ) -> Coroutine[Any, Any, None]:
        """Submit one packed bulk frame's sub-ops in arrival order.

        A frame of hundreds of ops costs one request task and one
        response write.  Decisions are bit-identical to the same ops
        arriving as v1 frames: both ride :meth:`_submit_frame`.
        """
        if tele is not None:
            tele.parsed("bulk")
        return self._finish(
            protocol.Request(id=rid, op="bulk", body={}),
            self._submit_frame(subops, protocol.decode_bulk_subop, tele),
            conn,
            tele,
        )

    def _submit_frame(
        self,
        subops: list,
        decode: Callable[[Any], Tuple[int, Any]],
        tele: "Optional[_ReqTele]",
    ) -> Tuple[BulkSlots, List[_Stamp]]:
        """Decode one frame's sub-ops (``decode`` is the v1 or the
        packed sub-op validator, or :func:`_decoded` for a lone op) and
        submit the well-formed ones in order; a malformed one keeps its
        slot as an inline error.

        The per-sub-op work is deliberately minimal: decode into a
        :class:`~repro.traffic.flows.FlowSpec` or a flow id, and build
        its ``(slot, kind, payload)`` entry — the one record per op,
        which the coalescer decides from as it is (a queued op keeps
        it).  Outcomes land in a shared :class:`BulkSlots` collector.
        Returns the collector and the frame's telemetry stamps (one per
        inline chunk, or the ops the coalescer queued).
        """
        slots = self.coalescer.open_bulk(len(subops))
        entries: List[Tuple[int, str, Any]] = []
        append = entries.append
        bulk_admit = protocol.BULK_ADMIT
        for i, sub in enumerate(subops):
            try:
                kind, arg = decode(sub)
            except ProtocolError as exc:
                slots.fill(i, exc)
                continue
            append((i, BULK_OP_ADMIT if kind == bulk_admit else BULK_OP_RELEASE, arg))
        trace, span = (None, None) if tele is None else (tele.trace, tele.span_hex)
        return slots, self.coalescer.submit_bulk(slots, entries, trace=trace, span_hex=span)

    def _bulk_slot(self, outcome: Any) -> List[Any]:
        """Packed response slot for one settled outcome, counted.

        The one outcome -> wire mapping: an ``R`` frame ships these
        slots as they are, a v1 ``batch`` or single response is their
        :func:`~repro.service.protocol.unpack_bulk_results` form.
        """
        if outcome is True:  # release
            self.counts["released"] += 1
            return [protocol.SLOT_RELEASED]
        if not isinstance(outcome, BaseException):
            decision: AdmissionDecision = outcome
            if decision.admitted:
                self.counts["admitted"] += 1
                kind = protocol.SLOT_ADMITTED
            else:
                self.counts["rejected"] += 1
                kind = protocol.SLOT_REJECTED
            return [kind, decision.reason, decision.batch_size]
        self.counts["errors"] += 1
        if isinstance(outcome, ProtocolError):
            return [protocol.SLOT_ERROR, outcome.code, str(outcome)]
        if isinstance(outcome, (AdmissionError, TrafficError)):
            code, message = protocol.ADMISSION_ERROR, str(outcome)
        elif isinstance(outcome, ReproError):
            code, message = protocol.INTERNAL, str(outcome)
        else:  # unexpected; the coalescer logged it where it was caught
            code = protocol.INTERNAL
            message = f"{type(outcome).__name__}: {outcome}"
        return [protocol.SLOT_ERROR, code, message]

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #

    def _begin(
        self, request: protocol.Request, tele: "Optional[_ReqTele]" = None
    ) -> Any:
        """Synchronous part of a request: validate and (for admission
        ops) submit to the coalescer in arrival order.

        Returns whatever :meth:`_finish` needs to produce the response:
        a ready response dict, the ``snapshot`` op's coroutine, or the
        frame carrier of
        :meth:`_submit_frame` — a lone ``admit`` / ``release`` is a
        frame of one, validated here so that a malformed one is refused
        before anything is submitted.
        """
        op = request.op
        body = request.body
        rid = request.id
        if op == "health":
            return protocol.ok_response(rid, self.health())
        if op == "stats":
            return protocol.ok_response(rid, self.stats())
        if op == "query":
            if "flow_id" not in body:
                raise ProtocolError(
                    protocol.BAD_REQUEST, "query needs flow_id"
                )
            fid = protocol.validate_flow_id(body["flow_id"])
            return protocol.ok_response(
                rid,
                {"established": self.controller.is_established(fid)},
            )
        if op == "snapshot":
            if self.store is None:
                return protocol.error_response(
                    rid,
                    protocol.UNAVAILABLE,
                    "no snapshot path configured",
                )
            return self._snapshot_op(rid)
        if op not in ("admit", "release", "batch"):
            return protocol.error_response(
                rid,
                protocol.UNKNOWN_OP,
                f"unknown op {op!r} (expected one of "
                f"{', '.join(protocol.OPS)})",
            )
        if op == "batch":
            ops = body.get("ops")
            if not isinstance(ops, list):
                raise ProtocolError(
                    protocol.BAD_REQUEST, "batch needs an ops list"
                )
            return self._submit_frame(ops, protocol.decode_batch_subop, tele)
        if op == "admit":
            entry = (
                protocol.BULK_ADMIT,
                protocol.flow_from_obj(body.get("flow")),
            )
        else:
            if "flow_id" not in body:
                raise ProtocolError(
                    protocol.BAD_REQUEST, "release needs flow_id"
                )
            entry = (
                protocol.BULK_RELEASE,
                protocol.validate_flow_id(body["flow_id"]),
            )
        return self._submit_frame([entry], _decoded, tele)

    async def _finish(
        self,
        request: protocol.Request,
        pending: Any,
        conn: Connection,
        tele: "Optional[_ReqTele]" = None,
    ) -> None:
        """Await what :meth:`_begin` / :meth:`begin_bulk` submitted and
        write the response; every outcome goes through
        :meth:`_bulk_slot`."""
        ops: List[_Stamp] = []
        n_subops: Optional[int] = None
        response: Union[Dict[str, Any], bytes]
        if isinstance(pending, dict):  # ready response
            response = pending
        elif asyncio.iscoroutine(pending):  # the snapshot op
            response = await pending
        else:  # a frame's carrier
            slots, ops = pending
            await slots.wait()
            packed = [self._bulk_slot(o) for o in slots.outcomes]
            if request.op in ("admit", "release"):  # a frame of one
                (sub,) = protocol.unpack_bulk_results(packed)
                response = {"id": request.id, **sub}
            else:
                n_subops = len(packed)
                response = (
                    protocol.encode_bulk_response(request.id, packed)
                    if request.op == "bulk"
                    else protocol.ok_response(
                        request.id,
                        {"results": protocol.unpack_bulk_results(packed)},
                    )
                )
        if tele is not None:
            tele.t_write = time.perf_counter()
        if isinstance(response, bytes):  # an ``R`` frame, always ok
            await conn.send_raw(response)
            ok = True
        else:
            await conn.send(response)
            ok = bool(response.get("ok", False))
        if tele is not None:
            self._finish_telemetry(request, tele, ops, ok, n_subops)

    def _finish_telemetry(
        self,
        request: protocol.Request,
        tele: "_ReqTele",
        ops: List[_Stamp],
        ok: bool,
        n_subops: Optional[int],
    ) -> None:
        """Per-request latency histogram and span emission.

        ``ops`` are the request's coalescer stamps — its queued ops, or
        one per chunk of a frame decided inline — and give the queue and
        execute stages and the batch span(s); ``n_subops`` is a frame's
        sub-op count.  Runs synchronously right after the response hits
        the socket, so a client that sees its reply and immediately
        scrapes ``/metrics`` finds this request already counted.
        """
        t_end = time.perf_counter()
        total = t_end - tele.t_recv
        if not OBS.enabled:
            return
        OBS.registry.histogram(
            "repro_service_request_seconds", op=request.op
        ).observe(total)
        attrs: Dict[str, Any] = {
            "op": request.op,
            "ok": ok,
            "parse_seconds": tele.t_parsed - tele.t_recv,
            "write_seconds": t_end - tele.t_write,
        }
        if tele.span_hex is not None:
            attrs["span_hex"] = tele.span_hex
        if tele.trace is not None:
            attrs["trace_id"] = tele.trace.trace_id
            attrs["parent_id"] = tele.trace.span_id
        if n_subops is not None:
            attrs["n_subops"] = n_subops
        if ops:
            attrs["queue_seconds"] = max(
                0.0, ops[0].dequeued_at - ops[0].enqueued_at
            )
            attrs["execute_seconds"] = max(
                0.0,
                max(op.decided_at for op in ops)
                - min(op.dequeued_at for op in ops),
            )
            if ops[0].batch_hex is not None:
                attrs["batch_span"] = ops[0].batch_hex
                distinct = {
                    op.batch_hex
                    for op in ops
                    if op.batch_hex is not None
                }
                if len(distinct) > 1:
                    attrs["batch_spans"] = len(distinct)
        OBS.tracer.record_span(
            "service.request",
            start=tele.t_recv,
            duration=total,
            **attrs,
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def _status(self) -> str:
        """``degraded`` while a limit holds the ledger below its
        verified capacity, else ``ok`` (the layer's header says
        ``draining`` over either)."""
        return "degraded" if self.controller.ledger.limited else "ok"

    def snapshot_age_seconds(self) -> Optional[float]:
        """Seconds since the last durable snapshot (None: no store or
        never written)."""
        if self.store is None or self.store.last_write_at is None:
            return None
        return max(0.0, time.time() - self.store.last_write_at)

    def health(self) -> Dict[str, Any]:
        obj = {
            "schema": protocol.PROTOCOL_SCHEMA,
            "established": self.controller.num_established,
            "queue_depth": self.coalescer.pending,
            **self._layer.header(self._status()),
        }
        if self.governor is not None:
            snap = self.governor.snapshot()
            obj["governor"] = {
                "rung": snap["rung"],
                "effective_alpha": snap["effective_alpha"],
                "at_top": self.governor.at_top,
            }
        return obj

    def stats(self) -> Dict[str, Any]:
        coalescer = self.coalescer
        controller = self.controller
        rss_mb, peak_rss_mb = process_memory_mb()
        out: Dict[str, Any] = {
            "schema": protocol.PROTOCOL_SCHEMA,
            "controller": type(controller).__name__,
            "pid": os.getpid(),
            "rss_mb": rss_mb,
            "peak_rss_mb": peak_rss_mb,
            "established": controller.num_established,
            # What the flow record costs: its rows (free ones included)
            # and their fixed-width bytes.
            "flow_rows": controller.flow_rows,
            "flow_table_bytes": controller.flow_table_bytes,
            # The controller's own O(1) tallies: every admission it
            # decided, including restores and preemption re-admits that
            # the per-request ``admitted``/``rejected`` counts never see.
            "decisions_total": controller.num_decisions,
            "admitted_total": controller.num_admitted,
            "rejected_total": controller.num_rejected,
            "released_total": controller.num_released,
            "queue_depth": coalescer.pending,
            **self._layer.header(self._status()),
            "snapshot_age_seconds": self.snapshot_age_seconds(),
            "batches": coalescer.batches,
            "coalesced_ops": coalescer.coalesced_ops,
            "largest_batch": coalescer.largest_batch,
            "mean_batch_fill": (
                coalescer.coalesced_ops / coalescer.batches
                if coalescer.batches
                else 0.0
            ),
            "max_batch": MAX_BATCH,
            "max_delay": self.config.max_delay,
            **{k: v for k, v in self.counts.items()},
        }
        if self.config.worker_index is not None:
            out["worker_index"] = self.config.worker_index
        if self.governor is not None:
            out["governor"] = self.governor.snapshot()
        if coalescer.preemptor is not None:
            out["preemption"] = {
                "preempted_flows": coalescer.preempted_flows,
                "preempted_admits": coalescer.preempted_admits,
            }
        if self.audit is not None:
            out["audit"] = {
                "path": self.audit.path,
                "records": self.audit.records_written,
            }
        return out

    # ------------------------------------------------------------------ #
    # live scrape support
    # ------------------------------------------------------------------ #

    def refresh_gauges(self) -> None:
        """Write every series that mirrors state or a count the process
        already keeps, read where it lives (per scrape, and once at
        drain).  The decision path pushes none of them."""
        if not OBS.enabled:
            return
        coalescer, controller = self.coalescer, self.controller
        counts, governor, audit = self.counts, self.governor, self.audit
        ctrl = {"controller": type(controller).__name__}
        header = self._layer.header()
        # (series, labels, value): a ``*_total`` series is a counter, the
        # rest are gauges, and a ``None`` value (no snapshot yet) is
        # skipped.
        table = [
            ("repro_service_queue_depth", {}, coalescer.pending),
            ("repro_service_established_flows", {}, controller.num_established),
            ("repro_service_draining", {}, header["draining"]),
            ("repro_service_uptime_seconds", {}, header["uptime_seconds"]),
            ("repro_service_requests_total", {}, counts["requests"]),
            ("repro_service_connections_total", {}, counts["connections"]),
            ("repro_service_snapshots_total", {}, counts["snapshots"]),
            ("repro_service_batches_total", {}, coalescer.batches),
            ("repro_service_snapshot_age_seconds", {}, self.snapshot_age_seconds()),
            (
                "repro_admission_decisions_total",
                {**ctrl, "result": "admitted"},
                controller.num_admitted,
            ),
            (
                "repro_admission_decisions_total",
                {**ctrl, "result": "rejected"},
                controller.num_rejected,
            ),
            ("repro_admission_releases_total", ctrl, controller.num_released),
        ]
        table += [
            (
                "repro_ledger_slots_in_use",
                {"cls": cls.name},
                sum(controller.ledger.used_slots(cls.name)),
            )
            for cls in controller.registry.realtime_classes()
        ]
        if governor is not None:
            table += [
                ("repro_service_effective_alpha", {}, governor.effective_alpha),
                ("repro_service_governor_rung", {}, governor.rung),
                ("repro_service_governor_moves_total", {}, counts["governor_moves"]),
            ]
        if coalescer.preemptor is not None:
            table += [
                ("repro_service_preempted_flows_total", {}, coalescer.preempted_flows),
                ("repro_service_preempted_admits_total", {}, coalescer.preempted_admits),
            ]
        if audit is not None:
            table.append(("repro_service_audit_records", {}, audit.records_written))
        reg = OBS.registry
        for name, labels, value in table:
            if value is not None:
                kind = reg.counter if name.endswith("_total") else reg.gauge
                kind(name, **labels).value = float(value)

    def scrape_text(self) -> str:
        """Prometheus exposition text for ``GET /metrics``."""
        if not OBS.enabled:
            text = "# observability is disabled on this server\n"
        else:
            from ..obs.export import to_prometheus_text

            self.refresh_gauges()
            text = to_prometheus_text(OBS.registry)
        return text + process_text()
