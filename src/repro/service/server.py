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
  flows on their original paths before accepting new traffic.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
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
from ..obs.process import process_memory_mb, process_text, startup_seconds
from . import protocol
from .coalescer import (
    BULK_OP_ADMIT,
    BULK_OP_RELEASE,
    MAX_BATCH,
    BulkSlots,
    MicroBatchCoalescer,
    _Stamp,
)
from .conn import Connection, ConnectionLayer, claim_unix_path

if TYPE_CHECKING:
    from ..control.governor import GovernorSample
    from .audit import AuditLog
    from .http import MetricsEndpoint
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
        if (
            self.snapshot_interval is not None
            and self.snapshot_interval <= 0
        ):
            raise ServiceError("snapshot_interval must be positive")
        if (
            self.snapshot_interval is not None
            and self.snapshot_path is None
        ):
            raise ServiceError(
                "snapshot_interval requires snapshot_path"
            )
        if self.metrics_port is not None and not (
            0 <= self.metrics_port <= 65535
        ):
            raise ServiceError(
                f"metrics_port must be in [0, 65535], "
                f"got {self.metrics_port}"
            )
        if self.drain_grace < 0:
            raise ServiceError("drain_grace must be >= 0")
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


class AdmissionService:
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
        self._governor_task: Optional["asyncio.Task"] = None
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
        self.metrics_endpoint: Optional[MetricsEndpoint] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._snapshot_task: Optional["asyncio.Task"] = None
        self._snapshot_lock: Optional[asyncio.Lock] = None
        self._draining = False
        self._drain_error: Optional[Exception] = None
        self._where = "?"
        self._started_at = time.time()
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
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start_unix(self, path: str) -> int:
        """Bind a Unix socket; returns the number of restored flows."""
        claim_unix_path(path)
        restored = self._restore()
        self._server = await asyncio.start_unix_server(
            self._layer.serve,
            path=path,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self._where = path
        await self._started()
        return restored

    async def start_tcp(self, host: str, port: int) -> int:
        """Bind a TCP listener; returns the number of restored flows."""
        restored = self._restore()
        self._server = await asyncio.start_server(
            self._layer.serve,
            host=host,
            port=port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self._where = f"{host}:{self.port}"
        await self._started()
        return restored

    @property
    def port(self) -> Optional[int]:
        """Bound TCP port (None for Unix sockets)."""
        if self._server is None or not self._server.sockets:
            return None
        name = self._server.sockets[0].getsockname()
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

    async def _started(self) -> None:
        self._started_at = time.time()
        self._stopped = asyncio.Event()
        self.coalescer.start()
        if self.audit is not None:
            # Every launch marks what it resumed from, so the audit
            # sequence stays verifiable across restarts (including the
            # empty set on a fresh start).
            self.audit.mark_restore(
                f.flow_id for f in self.controller.established_flows
            )
        if (
            self.store is not None
            and self.config.snapshot_interval is not None
        ):
            self._snapshot_task = asyncio.get_running_loop().create_task(
                self._snapshot_loop(), name="repro-service-snapshots"
            )
        if self.governor is not None:
            self._governor_task = asyncio.get_running_loop().create_task(
                self._governor_loop(), name="repro-service-governor"
            )
        if self.config.metrics_port is not None:
            from .http import MetricsEndpoint

            self.metrics_endpoint = MetricsEndpoint(
                self,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            )
            await self.metrics_endpoint.start()
        logger.info("admission service listening on %s", self._where)

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (no-op where unsupported)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-main thread or platform without signal support
                # (asyncio wraps the set_wakeup_fd ValueError in a
                # RuntimeError): callers fall back to stop()/drain().
                return

    def request_drain(self) -> None:
        """Start :meth:`drain` in the background (signal handlers,
        timers); :meth:`serve_forever` reports how it ended."""
        task = asyncio.get_running_loop().create_task(self.drain())
        # serve_forever() re-raises a failed drain; retrieve it here so
        # the detached task does not also warn at exit.
        task.add_done_callback(lambda t: t.cancelled() or t.exception())

    async def serve_forever(self) -> None:
        """Block until :meth:`drain` completes; re-raises its failure
        (a final snapshot that could not be written)."""
        if self._stopped is None:
            raise ServiceError("service is not started")
        await self._stopped.wait()
        if self._drain_error is not None:
            raise self._drain_error

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, answer everything
        in-flight, stop the coalescer, snapshot, close."""
        if self._draining:
            return
        self._draining = True
        if self.config.drain_grace > 0:
            # The draining state is already visible (health op and
            # /healthz answer 503, admission ops get "unavailable");
            # hold the listeners open so load balancers can observe
            # the flip before connections start closing.
            await asyncio.sleep(self.config.drain_grace)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            await asyncio.gather(
                self._snapshot_task, return_exceptions=True
            )
            self._snapshot_task = None
        if self._governor_task is not None:
            self._governor_task.cancel()
            await asyncio.gather(
                self._governor_task, return_exceptions=True
            )
            self._governor_task = None
        await self._layer.settle()
        await self.coalescer.stop()
        try:
            if self.store is not None:
                await self.write_snapshot()
        except Exception as exc:
            # The listeners are already closed: shutdown must finish
            # (audit fsynced, serve_forever() released) or the process
            # can only be killed.  The failure is not swallowed.
            logger.error("final snapshot failed: %s", exc)
            self._drain_error = exc
            raise
        finally:
            # The exit snapshot (``serve --metrics-out``) holds every
            # series a scrape would.
            self.refresh_gauges()
            if self.audit is not None:
                self.audit.close()
            if self.metrics_endpoint is not None:
                await self.metrics_endpoint.stop()
                self.metrics_endpoint = None
            self._layer.close()
            if self._stopped is not None:
                self._stopped.set()
        logger.info("admission service on %s drained", self._where)

    async def stop(self) -> None:
        """Alias for :meth:`drain` (test/operator convenience)."""
        await self.drain()

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #

    async def write_snapshot(self) -> int:
        """Persist the current state; returns the number of flows in
        the cut written.

        The one snapshot writer: the periodic loop, the ``snapshot`` op
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
                # Drain cancels the periodic loop: the lock is held
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

    async def _snapshot_loop(self) -> None:
        assert self.config.snapshot_interval is not None
        while True:
            await asyncio.sleep(self.config.snapshot_interval)
            await self.write_snapshot()

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

    async def _governor_loop(self) -> None:
        interval = self.config.governor_interval
        try:
            while True:
                await asyncio.sleep(interval)
                self.governor_step()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------ #
    # refusal
    # ------------------------------------------------------------------ #

    def _refusal(
        self, rid: protocol.RequestId
    ) -> Optional[Dict[str, Any]]:
        """The ready error response of an admission request while the
        server drains, else ``None``.  Load is never refused here: a
        connection's next frame is read once this one is decided, so
        excess load waits in the socket."""
        if self._draining:
            return protocol.error_response(
                rid, protocol.UNAVAILABLE, "server is draining"
            )
        return None

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
            self._refusal(rid)
            or self._submit_frame(subops, protocol.decode_bulk_subop, tele),
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
        refusal = self._refusal(rid)
        if refusal is not None:
            return refusal
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
        """One-word serving state, worst condition first."""
        if self._draining:
            return "draining"
        if self.controller.ledger.limited:
            return "degraded"
        return "ok"

    def snapshot_age_seconds(self) -> Optional[float]:
        """Seconds since the last durable snapshot (None: no store or
        never written)."""
        if self.store is None or self.store.last_write_at is None:
            return None
        return max(0.0, time.time() - self.store.last_write_at)

    def health(self) -> Dict[str, Any]:
        obj = {
            "status": self._status(),
            "schema": protocol.PROTOCOL_SCHEMA,
            "established": self.controller.num_established,
            "queue_depth": self.coalescer.pending,
            "draining": self._draining,
            "uptime_seconds": max(0.0, time.time() - self._started_at),
            "startup_seconds": startup_seconds(self._started_at),
        }
        if self.governor is not None:
            snap = self.governor.snapshot()
            obj["governor"] = {
                "rung": snap["rung"],
                "effective_alpha": snap["effective_alpha"],
                "at_top": self.governor.at_top,
            }
        return obj

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        """(HTTP status, body) for ``GET /healthz``.

        ``ok``/``degraded`` answer 200 (still servable), ``draining``
        answers 503 so load balancers stop routing without parsing the
        body.
        """
        obj = self.health()
        return 503 if obj["status"] == "draining" else 200, obj

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
            "draining": self._draining,
            "status": self._status(),
            "uptime_seconds": max(0.0, time.time() - self._started_at),
            "startup_seconds": startup_seconds(self._started_at),
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
        # (series, labels, value): a ``*_total`` series is a counter, the
        # rest are gauges, and a ``None`` value (no snapshot yet) is
        # skipped.
        table = [
            ("repro_service_queue_depth", {}, coalescer.pending),
            ("repro_service_established_flows", {}, controller.num_established),
            ("repro_service_draining", {}, self._draining),
            (
                "repro_service_uptime_seconds",
                {},
                max(0.0, time.time() - self._started_at),
            ),
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
