"""Asyncio admission-control server.

:class:`AdmissionService` fronts a slot-ledger admission controller
(:class:`~repro.admission.utilization.UtilizationAdmissionController`,
or a shard of one) with the wire protocol of
:mod:`repro.service.protocol` over TCP or a Unix socket.  Framing,
negotiation and response writing belong to
:mod:`repro.service.conn`; this class is its handler: each parsed frame
hands its admits/releases to the
:class:`~repro.service.coalescer.MicroBatchCoalescer` **synchronously,
in frame order**, and returns the small coroutine that awaits the
decision and writes the response.

Around that core:

* **backpressure with load shedding** — once the coalescer backlog
  crosses ``high_water`` pending ops, admit/release/batch requests are
  answered with an explicit ``overloaded`` error (never silently
  dropped) until the backlog drains below ``low_water`` (hysteresis);
* **graceful drain** — SIGTERM/SIGINT stop the listener, let in-flight
  requests finish, flush the coalescer, write a final snapshot, and
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
from ..control.governor import GovernorSample
from ..errors import (
    AdmissionError,
    ProtocolError,
    ReproError,
    ServiceError,
    TrafficError,
)
from ..obs import (
    OBS,
    SLOConfig,
    SLOTracker,
    TraceContext,
    new_span_id,
    to_prometheus_text,
    trace_context_from_obj,
)
from ..obs.process import process_memory_mb, process_text, startup_seconds
from . import protocol
from .audit import AuditLog
from .coalescer import (
    BULK_OP_ADMIT,
    BULK_OP_RELEASE,
    BulkSlots,
    MicroBatchCoalescer,
    _Op,
)
from .conn import Connection, ConnectionLayer
from .http import MetricsEndpoint
from .snapshots import SnapshotStore, service_snapshot

__all__ = ["ServiceConfig", "AdmissionService"]

logger = logging.getLogger("repro.service")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`AdmissionService`.

    Attributes
    ----------
    max_batch / max_delay:
        Coalescing window: requests arriving within ``max_delay``
        seconds (up to ``max_batch`` of them) are decided by one batch
        kernel call.
    high_water / low_water:
        Backlog hysteresis (pending coalescer ops).  At or above
        ``high_water`` the server sheds admit/release/batch requests
        with ``overloaded`` responses; shedding stops once the backlog
        drains to ``low_water`` or below.
    max_frame_bytes:
        Per-line protocol frame ceiling; an oversized frame earns a
        ``frame_too_large`` error and a clean connection close.
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
    slo:
        Rolling-window latency/shed objectives; ``None`` tracks against
        the :class:`~repro.obs.slo.SLOConfig` defaults but only while
        observability is enabled.
    drain_grace:
        Seconds the drain sequence keeps the listener (and
        ``/healthz``) answering *after* flipping to ``draining`` —
        the window a load balancer needs to observe the flip and stop
        routing before connections close.
    negotiate_v2:
        Accept ``hello`` upgrades to the binary v2 framing (default).
        ``False`` makes the server behave exactly like a pre-v2 build:
        ``hello`` earns ``unknown_op`` and v2-capable clients fall back
        to v1 transparently — the knob behind ``serve --protocol v1``
        and the back-compat tests.
    governor_interval:
        Seconds between alpha-governor control steps (only meaningful
        when an :class:`~repro.control.AlphaGovernor` is attached to the
        service; see :mod:`repro.control`).
    """

    max_batch: int = 1024
    max_delay: float = 0.002
    high_water: int = 8192
    low_water: int = 4096
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    snapshot_path: Optional[str] = None
    snapshot_interval: Optional[float] = None
    metrics_host: str = "127.0.0.1"
    metrics_port: Optional[int] = None
    audit_path: Optional[str] = None
    audit_fsync_every: int = 256
    audit_max_bytes: Optional[int] = None
    audit_keep: int = 4
    slo: Optional[SLOConfig] = None
    negotiate_v2: bool = True
    drain_grace: float = 0.0
    governor_interval: float = 0.05
    #: Shard index when this server is one worker of a cluster (set by
    #: the supervisor; surfaces in ``stats`` for aggregation, has no
    #: behavioural effect here — the shard quota lives in the
    #: controller).
    worker_index: Optional[int] = None

    def __post_init__(self):
        if self.low_water > self.high_water:
            raise ServiceError(
                f"low_water {self.low_water} must not exceed "
                f"high_water {self.high_water}"
            )
        if self.high_water < 1:
            raise ServiceError("high_water must be >= 1")
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
            # Snapshots, the governor's headroom signal, preemption and
            # the audit headroom all read the slot ledger.
            raise ServiceError(
                f"controller {type(controller).__name__} holds no slot "
                "ledger; the service fronts a "
                "UtilizationAdmissionController"
            )
        self.controller = controller
        self.config = config
        self.coalescer = MicroBatchCoalescer(
            controller,
            max_batch=config.max_batch,
            max_delay=config.max_delay,
        )
        #: Optional :class:`~repro.control.AlphaGovernor` driving the
        #: effective alpha along a pre-certified ladder; ``None`` keeps
        #: behaviour bit-identical to a governor-less build.
        self.governor = governor
        self._governor_task: Optional["asyncio.Task"] = None
        if preemptor is not None:
            self.coalescer.preemptor = preemptor
        self.store: Optional[SnapshotStore] = None
        if config.snapshot_path is not None:
            self.store = SnapshotStore(config.snapshot_path)
        self.audit: Optional[AuditLog] = None
        if config.audit_path is not None:
            self.audit = AuditLog(
                config.audit_path,
                fsync_every=config.audit_fsync_every,
                max_bytes=config.audit_max_bytes,
                keep=config.audit_keep,
            )
            self.coalescer.audit = self.audit
        #: Rolling-window SLO tracker; fed only while telemetry is on
        #: (an explicit ``slo`` config, or observability enabled) so
        #: the telemetry-off request path stays unchanged.
        self.slo = SLOTracker(config.slo)
        self._slo_on = config.slo is not None
        self.metrics_endpoint: Optional[MetricsEndpoint] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._snapshot_task: Optional["asyncio.Task"] = None
        self._shedding = False
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
            "shed": 0,
            "connections": 0,
            "snapshots": 0,
            "restored": 0,
            "governor_moves": 0,
        }
        self._layer = ConnectionLayer(
            self,
            max_frame_bytes=config.max_frame_bytes,
            negotiate_v2=config.negotiate_v2,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start_unix(self, path: str) -> int:
        """Bind a Unix socket; returns the number of restored flows."""
        import os

        restored = self._restore()
        if os.path.exists(path):
            os.unlink(path)  # stale socket from a killed predecessor
        self._server = await asyncio.start_unix_server(
            self._on_connection,
            path=path,
            limit=self.config.max_frame_bytes,
        )
        self._where = path
        await self._started()
        return restored

    async def start_tcp(self, host: str, port: int) -> int:
        """Bind a TCP listener; returns the number of restored flows."""
        restored = self._restore()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=host,
            port=port,
            limit=self.config.max_frame_bytes,
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
        in-flight, flush the coalescer, snapshot, close."""
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
        await self.coalescer.flush()
        await self.coalescer.stop()
        try:
            self.write_snapshot()
        except Exception as exc:
            # The listeners are already closed: shutdown must finish
            # (audit fsynced, serve_forever() released) or the process
            # can only be killed.  The failure is not swallowed.
            logger.error("final snapshot failed: %s", exc)
            self._drain_error = exc
            raise
        finally:
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

    def write_snapshot(self) -> Optional[str]:
        """Persist current state now; returns the path (None if no
        store is configured)."""
        if self.store is None:
            return None
        snapshot = service_snapshot(self.controller)
        self._mark_snapshot(snapshot)
        self.store.write(snapshot)
        self.counts["snapshots"] += 1
        if OBS.enabled:
            OBS.registry.counter("repro_service_snapshots_total").inc()
        return self.store.path

    def _mark_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Make the audit log durable *before* the snapshot write.

        Ordering is the crash-safety invariant: the marker (and every
        decision before it) hits disk first, so a snapshot found after
        ``kill -9`` is always fully accounted for by the audit log.
        """
        if self.audit is not None:
            self.audit.mark_snapshot(
                item["flow_id"] for item in snapshot["flows"]
            )

    async def _snapshot_loop(self) -> None:
        assert self.config.snapshot_interval is not None
        assert self.store is not None
        loop = asyncio.get_running_loop()
        try:
            while True:
                await asyncio.sleep(self.config.snapshot_interval)
                # The snapshot dict is built synchronously — the
                # controller only mutates inside the coalescer's
                # (await-free) batch step, so this is a consistent
                # cut — but serialization + fsync go to an executor
                # so a large established set never stalls request
                # handling for the duration of the disk write.
                snapshot = service_snapshot(self.controller)
                # Audit marker first (synchronously, same consistent
                # cut): its fsync must complete before the snapshot
                # replace can make the cut discoverable.
                self._mark_snapshot(snapshot)
                write = loop.run_in_executor(
                    None, self.store.write, snapshot
                )
                try:
                    await asyncio.shield(write)
                except asyncio.CancelledError:
                    # Cancellation mid-write (drain): let the executor
                    # finish so it cannot race drain's final snapshot
                    # onto the same tmp file.
                    await write
                    raise
                self.counts["snapshots"] += 1
                if OBS.enabled:
                    OBS.registry.counter(
                        "repro_service_snapshots_total"
                    ).inc()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------ #
    # adaptive overload control (alpha governor)
    # ------------------------------------------------------------------ #

    def governor_sample(self) -> GovernorSample:
        """Current congestion sample fed to the alpha governor.

        *Queue delay* is the backlog expressed in coalescing windows —
        ``pending / max_batch`` batches, each costing up to
        ``max_delay`` seconds — a deterministic proxy for how long a
        request admitted now has already waited.  *Headroom* is the
        free fraction of the **verified** slot capacity (not the
        degraded/effective one), so a DEC move never feeds back into
        its own pressure signal.
        """
        pending = self.coalescer.pending
        per_batch = max(self.config.max_delay, 1e-4)
        queue_delay = (pending / self.config.max_batch) * per_batch
        return GovernorSample(
            queue_delay=queue_delay,
            headroom=self.controller.ledger.verified_headroom(),
        )

    def governor_step(self) -> Optional[float]:
        """Run one governor observation; applies any rung move to the
        controller.  Returns the newly applied degradation factor, or
        None when the governor held.  Synchronous (no awaits), so the
        ledger transition is atomic with respect to batch decisions."""
        governor = self.governor
        if governor is None:
            return None
        factor = governor.observe(self.governor_sample())
        if factor is None:
            return None
        if governor.at_top:
            self.controller.exit_degraded_mode()
        else:
            self.controller.enter_degraded_mode(factor)
        self.counts["governor_moves"] += 1
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("repro_service_governor_moves_total").inc()
            reg.gauge("repro_service_effective_alpha").set(
                governor.effective_alpha
            )
            reg.gauge("repro_service_governor_rung").set(governor.rung)
        logger.info(
            "governor moved to rung %d (alpha=%.4f, factor=%.4f)",
            governor.rung,
            governor.effective_alpha,
            factor,
        )
        return factor

    async def _governor_loop(self) -> None:
        interval = self.config.governor_interval
        try:
            while True:
                await asyncio.sleep(interval)
                self.governor_step()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------ #
    # backpressure
    # ------------------------------------------------------------------ #

    def shedding(self) -> bool:
        """Current shed state, updated with hysteresis."""
        depth = self.coalescer.pending
        if self._shedding:
            if depth <= self.config.low_water:
                self._shedding = False
        elif depth >= self.config.high_water:
            self._shedding = True
        return self._shedding

    def _shed_response(self, rid: protocol.RequestId) -> Dict[str, Any]:
        self.counts["shed"] += 1
        if self._slo_on or OBS.enabled:
            self.slo.record_shed()
        if OBS.enabled:
            OBS.registry.counter(
                "repro_service_shed_total", reason="high_water"
            ).inc()
        return protocol.error_response(
            rid,
            protocol.OVERLOADED,
            f"queue depth {self.coalescer.pending} is past the "
            f"{self.config.high_water} high-water mark; retry later",
        )

    def _refusal(
        self, rid: protocol.RequestId
    ) -> Optional[Dict[str, Any]]:
        """The ready error response of an admission request this server
        will not take right now (draining, shedding), else ``None``."""
        if self._draining:
            return protocol.error_response(
                rid, protocol.UNAVAILABLE, "server is draining"
            )
        if self.shedding():
            return self._shed_response(rid)
        return None

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if OBS.enabled:
            OBS.registry.counter(
                "repro_service_connections_total"
            ).inc()
        await self._layer.serve(reader, writer)

    def frame_context(self) -> "Optional[_ReqTele]":
        """Per-frame telemetry scratchpad (``None`` with telemetry
        off), stamped before the frame is decoded."""
        tele: Optional[_ReqTele] = None
        if self._slo_on or OBS.enabled:
            tele = _ReqTele(time.perf_counter())
            self.slo.record_request()
        if OBS.enabled:
            OBS.registry.counter("repro_service_requests_total").inc()
        return tele

    def begin_request(
        self,
        conn: Connection,
        request: protocol.Request,
        tele: "Optional[_ReqTele]",
    ) -> Coroutine[Any, Any, None]:
        """Begin one parsed request; its response coroutine."""
        if tele is not None:
            tele.t_parsed = time.perf_counter()
            tele.op = request.op
            tele.trace = trace_context_from_obj(
                request.body.get("trace")
            )
            if OBS.enabled and OBS.tracer is not None:
                tele.span_hex = new_span_id()
        return self._finish(
            request, self._begin(request, tele), conn, tele
        )

    # ------------------------------------------------------------------ #
    # frames: v1 ``batch`` and v2 ``B`` share one carrier
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
            tele.t_parsed = time.perf_counter()
            tele.op = "bulk"
        return self._finish(
            protocol.Request(id=rid, op="bulk", body={}),
            self._refusal(rid)
            or self._submit_frame(subops, protocol.decode_bulk_subop),
            conn,
            tele,
        )

    def _submit_frame(
        self,
        subops: list,
        decode: Callable[[Any], Tuple[int, Any]],
        tele: "Optional[_ReqTele]" = None,
    ) -> Tuple[BulkSlots, List[_Op]]:
        """Decode one frame's sub-ops (``decode`` is the v1 or the
        packed sub-op validator) and submit the well-formed ones in
        order; a malformed one keeps its slot as an inline error.

        The per-sub-op work is deliberately minimal — decode into a
        :class:`~repro.traffic.flows.FlowSpec` or a flow id and one
        ``(slot, kind, payload)`` entry on a shared :class:`BulkSlots`
        collector.  Returns the collector and the ops the coalescer had
        to queue (none when it decided the frame inline).
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
            op = BULK_OP_ADMIT if kind == bulk_admit else BULK_OP_RELEASE
            append((i, op, arg))
        return slots, self.coalescer.submit_bulk(
            slots,
            entries,
            trace=None if tele is None else tele.trace,
            span_hex=None if tele is None else tele.span_hex,
        )

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
        a ready response dict, the one queued op, or the frame carrier
        of :meth:`_submit_frame` for ``batch``.
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
            path = self.write_snapshot()
            return protocol.ok_response(
                rid,
                {
                    "path": path,
                    "flows": self.controller.num_established,
                },
            )
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
        trace = tele.trace if tele is not None else None
        span_hex = tele.span_hex if tele is not None else None
        if op == "admit":
            flow = protocol.flow_from_obj(body.get("flow"))
            return self.coalescer.submit_admit_op(
                flow, trace=trace, span_hex=span_hex
            )
        if op == "release":
            if "flow_id" not in body:
                raise ProtocolError(
                    protocol.BAD_REQUEST, "release needs flow_id"
                )
            return self.coalescer.submit_release_op(
                protocol.validate_flow_id(body["flow_id"]),
                trace=trace,
                span_hex=span_hex,
            )
        ops = body.get("ops")
        if not isinstance(ops, list):
            raise ProtocolError(
                protocol.BAD_REQUEST, "batch needs an ops list"
            )
        return self._submit_frame(ops, protocol.decode_batch_subop, tele)

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
        ops: List[_Op] = []
        n_subops: Optional[int] = None
        response: Union[Dict[str, Any], bytes]
        if isinstance(pending, dict):  # ready response
            response = pending
        elif isinstance(pending, _Op):
            ops = [pending]
            try:
                outcome = await pending.future
            except Exception as exc:
                outcome = exc
            (sub,) = protocol.unpack_bulk_results(
                [self._bulk_slot(outcome)]
            )
            response = {"id": request.id, **sub}
        else:  # a frame's carrier
            slots, ops = pending
            await slots.wait()
            n_subops = len(slots.outcomes)
            packed = [self._bulk_slot(o) for o in slots.outcomes]
            if request.op == "bulk":
                response = protocol.encode_bulk_response(
                    request.id, packed
                )
            else:
                response = protocol.ok_response(
                    request.id,
                    {"results": protocol.unpack_bulk_results(packed)},
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
        ops: List[_Op],
        ok: bool,
        n_subops: Optional[int],
    ) -> None:
        """Per-request SLO feed, latency histogram, and span emission.

        ``ops`` are the request's queued coalescer ops (their stamps
        give the queue and execute stages), ``n_subops`` a frame's
        sub-op count.  Runs synchronously right after the response hits
        the socket, so a client that sees its reply and immediately
        scrapes ``/metrics`` finds this request already counted.
        """
        t_end = time.perf_counter()
        total = t_end - tele.t_recv
        if self._slo_on or OBS.enabled:
            self.slo.observe_latency(total)
        if not OBS.enabled:
            return
        OBS.registry.histogram(
            "repro_service_request_seconds", op=request.op
        ).observe(total)
        tracer = OBS.tracer
        if tracer is None:
            return
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
        tracer.record_span(
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
        if self._shedding:
            return "overloaded"
        if self.controller.in_degraded_mode:
            return "degraded"
        if self._slo_on and self.slo.snapshot()["breaching"]:
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
            "shedding": self._shedding,
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

        ``ok``/``degraded`` answer 200 (still servable), ``overloaded``
        and ``draining`` answer 503 so load balancers stop routing
        without parsing the body.
        """
        self.shedding()  # refresh hysteresis from the live queue depth
        obj = self.health()
        obj["slo"] = self.slo.snapshot()
        status = 503 if obj["status"] in ("draining", "overloaded") else 200
        return status, obj

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
            # The controller's own O(1) tallies: every admission it
            # decided, including restores and preemption re-admits that
            # the per-request ``admitted``/``rejected`` counts never see.
            "decisions_total": controller.num_decisions,
            "admitted_total": controller.num_admitted,
            "rejected_total": controller.num_rejected,
            "queue_depth": coalescer.pending,
            "shedding": self._shedding,
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
            "max_batch": self.config.max_batch,
            "max_delay": self.config.max_delay,
            "high_water": self.config.high_water,
            "low_water": self.config.low_water,
            "slo": self.slo.snapshot(),
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
        """Push point-in-time state into the metrics registry (called
        per scrape, so gauges are live even between batches)."""
        if not OBS.enabled:
            return
        reg = OBS.registry
        reg.gauge("repro_service_queue_depth").set(self.coalescer.pending)
        reg.gauge("repro_service_established_flows").set(
            self.controller.num_established
        )
        reg.gauge("repro_service_shedding").set(
            1.0 if self._shedding else 0.0
        )
        reg.gauge("repro_service_draining").set(
            1.0 if self._draining else 0.0
        )
        reg.gauge("repro_service_uptime_seconds").set(
            max(0.0, time.time() - self._started_at)
        )
        age = self.snapshot_age_seconds()
        if age is not None:
            reg.gauge("repro_service_snapshot_age_seconds").set(age)
        if self.governor is not None:
            reg.gauge("repro_service_effective_alpha").set(
                self.governor.effective_alpha
            )
            reg.gauge("repro_service_governor_rung").set(
                self.governor.rung
            )
        if self.audit is not None:
            reg.gauge("repro_service_audit_records").set(
                self.audit.records_written
            )
        self.slo.export_gauges(reg)

    def scrape_text(self) -> str:
        """Prometheus exposition text for ``GET /metrics``."""
        if not OBS.enabled:
            text = "# observability is disabled on this server\n"
        else:
            self.refresh_gauges()
            text = to_prometheus_text(OBS.registry)
        return text + process_text()
