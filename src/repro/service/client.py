"""Client library for the admission service.

:class:`AsyncServiceClient` is the asyncio core: it speaks the
``repro-admission-rpc/v1`` protocol over TCP or a Unix socket, matches
responses to requests by id (so many coroutines can pipeline requests on
one connection), and retries ``overloaded`` responses under a
:class:`~repro.faults.degraded.BackoffPolicy`.  :class:`ServiceClient`
wraps it in a synchronous facade (its own private event loop) so plain
code — the workload driver, the CLI, the benchmarks — can use the
service like an in-process controller.

Passing ``protocol="v2"`` asks for the length-prefixed binary framing
(``repro-admission-rpc/v2``): the connection handshake sends a ``hello``
on the reserved request id 0 *before any ordinary request id is
assigned*, so a v2 proposal refused by an older server (``unknown_op``)
falls back to v1 transparently — same client object, same API, no
request ever observes the downgrade.  On a negotiated v2 connection,
:meth:`AsyncServiceClient.batch` additionally packs plain admit/release
batches into single binary bulk frames (the server's fast path);
everything else rides in JSON carrier frames with unchanged semantics.

Server-side failures surface as the exceptions the in-process API
raises: a rejected-with-exception admission (already established, bad
route, unknown class) raises :class:`~repro.errors.AdmissionError`;
shedding raises :class:`~repro.errors.ServiceOverloadedError` once
retries are exhausted; protocol violations raise
:class:`~repro.errors.ProtocolError` with the server's error code.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional

from ..errors import (
    AdmissionError,
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
)
from ..faults.degraded import BackoffPolicy
from ..obs import OBS, TraceContext, new_span_id, new_trace_id
from ..traffic.flows import FlowSpec
from . import protocol
from .conn import propose_v2, read_responses

__all__ = ["WireDecision", "AsyncServiceClient", "ServiceClient"]

#: Errors that mean "the connection attempt should be retried".
_CONNECT_ERRORS = (ConnectionError, FileNotFoundError, OSError)

#: Stream read limit (the ``protocol`` module name is shadowed by the
#: keyword argument of the same name in the connect paths).
_FRAME_LIMIT = protocol.MAX_FRAME_BYTES


def _wire_generation(name: str) -> int:
    """Map a protocol selector to its wire generation (1 or 2)."""
    if name in ("v1", protocol.PROTOCOL_SCHEMA):
        return 1
    if name in ("v2", protocol.PROTOCOL_SCHEMA_V2):
        return 2
    raise ServiceError(
        f"unknown protocol {name!r} (use 'v1' or 'v2')"
    )


@dataclass(frozen=True)
class WireDecision:
    """Admission decision as reported over the wire."""

    flow_id: Hashable
    admitted: bool
    reason: str
    batch_size: int


class AsyncServiceClient:
    """Asyncio client for one admission-service connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        backoff: BackoffPolicy = BackoffPolicy(base=0.01, max_retries=5),
        retry_overloaded: bool = True,
        propagate_trace: Optional[bool] = None,
        protocol: str = "v1",
    ):
        self._reader = reader
        self._writer = writer
        self.backoff = backoff
        self.retry_overloaded = retry_overloaded
        #: Wire trace propagation: ``True`` stamps every request with a
        #: fresh trace context, ``False`` never does, ``None`` (default)
        #: follows the process-wide observability switch.
        self.propagate_trace = propagate_trace
        self._pending: Dict[Any, "asyncio.Future"] = {}
        self._next_id = 0
        self._closed = False
        self._want_v2 = _wire_generation(protocol) == 2
        self._proto = 1
        self._dispatcher: Optional["asyncio.Task"] = None
        if not self._want_v2:
            # v1 needs no handshake; start reading immediately.  For a
            # v2 request the dispatcher must not race the negotiation
            # exchange, so it starts inside :meth:`handshake`.
            self._start_dispatcher()

    def _start_dispatcher(self) -> None:
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch(), name="repro-service-client"
        )

    @property
    def negotiated_protocol(self) -> str:
        """``"v1"`` or ``"v2"`` — settled once :meth:`handshake` ran."""
        return "v2" if self._proto == 2 else "v1"

    async def handshake(self) -> None:
        """Negotiate the wire protocol before the first request.

        Sends the ``hello`` on the reserved id 0 and reads the answer
        inline (the dispatcher is not running yet), so no ordinary
        request id is ever consumed by negotiation: a refusal from an
        old v1-only server downgrades this client to v1 transparently
        and the next request still gets id 1 — exactly as if v1 had
        been requested all along.
        """
        if not self._want_v2 or self._dispatcher is not None:
            return
        try:
            self._proto = await propose_v2(
                self._reader, self._writer, _FRAME_LIMIT
            )
        except (ConnectionError, OSError) as exc:
            raise ServiceError(
                f"connection lost during protocol negotiation: {exc}"
            ) from exc
        self._start_dispatcher()

    # ------------------------------------------------------------------ #
    # connection
    # ------------------------------------------------------------------ #

    @classmethod
    async def connect_unix(
        cls,
        path: str,
        *,
        backoff: BackoffPolicy = BackoffPolicy(base=0.01, max_retries=5),
        retry_overloaded: bool = True,
        propagate_trace: Optional[bool] = None,
        protocol: str = "v1",
    ) -> "AsyncServiceClient":
        """Connect over a Unix socket, retrying while the server comes up."""
        reader, writer = await cls._connect_with_retry(
            lambda: asyncio.open_unix_connection(
                path, limit=_FRAME_LIMIT
            ),
            backoff,
        )
        client = cls(
            reader,
            writer,
            backoff=backoff,
            retry_overloaded=retry_overloaded,
            propagate_trace=propagate_trace,
            protocol=protocol,
        )
        await client.handshake()
        return client

    @classmethod
    async def connect_tcp(
        cls,
        host: str,
        port: int,
        *,
        backoff: BackoffPolicy = BackoffPolicy(base=0.01, max_retries=5),
        retry_overloaded: bool = True,
        propagate_trace: Optional[bool] = None,
        protocol: str = "v1",
    ) -> "AsyncServiceClient":
        """Connect over TCP, retrying while the server comes up."""
        reader, writer = await cls._connect_with_retry(
            lambda: asyncio.open_connection(
                host, port, limit=_FRAME_LIMIT
            ),
            backoff,
        )
        client = cls(
            reader,
            writer,
            backoff=backoff,
            retry_overloaded=retry_overloaded,
            propagate_trace=propagate_trace,
            protocol=protocol,
        )
        await client.handshake()
        return client

    @staticmethod
    async def _connect_with_retry(factory, backoff: BackoffPolicy):
        attempt = 0
        while True:
            try:
                return await factory()
            except _CONNECT_ERRORS as exc:
                if attempt >= backoff.max_retries:
                    raise ServiceError(
                        f"could not connect to admission service: {exc}"
                    ) from exc
                await asyncio.sleep(backoff.delay(attempt))
                attempt += 1

    async def close(self) -> None:
        """Close the connection; in-flight requests fail."""
        if self._closed:
            return
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
        try:
            self._writer.close()
        except Exception:
            pass
        self._fail_pending(ServiceError("client closed"))

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # response dispatch
    # ------------------------------------------------------------------ #

    async def _dispatch(self) -> None:
        """Settle waiters until the stream ends; whatever ends it —
        EOF, a reset, a frame that cannot be delimited or decoded —
        fails every pending call with the reason attached."""
        try:
            await read_responses(
                self._reader, self._proto, _FRAME_LIMIT, self._settle
            )
            self._fail_pending(
                ServiceError("server closed the connection")
            )
        except ProtocolError as exc:
            self._fail_pending(exc)
        except (ConnectionError, OSError) as exc:
            self._fail_pending(
                ServiceError(f"connection lost: {exc}")
            )

    def _settle(self, frame: Dict[str, Any]) -> None:
        """Resolve the waiter for one response frame."""
        rid = frame.get("id")
        future = self._pending.pop(rid, None)
        if future is None:
            # Unattributed (id null) errors may close the connection
            # server-side; everything waiting dies with the reason
            # attached.
            if rid is None and not frame.get("ok", False):
                err = frame.get("error", {})
                self._fail_pending(
                    ProtocolError(
                        err.get("code", protocol.INTERNAL),
                        err.get("message", "unattributed error"),
                    )
                )
        elif not future.done():
            future.set_result(frame)

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    # ------------------------------------------------------------------ #
    # request primitives
    # ------------------------------------------------------------------ #

    def _submit(self, op: str, body: Dict[str, Any]) -> "asyncio.Future":
        """Write one request frame; the future resolves to the raw
        response frame."""
        if self._closed:
            raise ServiceError("client is closed")
        if self._dispatcher is None:
            raise ServiceError(
                "protocol negotiation has not run — connect via "
                "connect_unix()/connect_tcp() or await handshake()"
            )
        self._next_id += 1
        rid = self._next_id
        frame: Dict[str, Any] = {"id": rid, "op": op}
        frame.update(body)
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        try:
            if self._proto == 2:
                self._writer.write(protocol.encode_frame_v2(frame))
            else:
                self._writer.write(protocol.encode_frame(frame))
        except (ConnectionError, RuntimeError, OSError) as exc:
            self._pending.pop(rid, None)
            raise ServiceError(f"connection lost: {exc}") from exc
        return future

    @staticmethod
    def _result_of(frame: Dict[str, Any]) -> Dict[str, Any]:
        """Unwrap a response frame, raising the mapped exception."""
        if frame.get("ok"):
            return frame.get("result", {})
        err = frame.get("error", {})
        code = err.get("code", protocol.INTERNAL)
        message = err.get("message", "unknown server error")
        raise _mapped_error(code, message)

    def _tracing(self) -> bool:
        if self.propagate_trace is None:
            return OBS.enabled
        return self.propagate_trace

    async def request(self, op: str, **body: Any) -> Dict[str, Any]:
        """One RPC; retries ``overloaded`` responses under the backoff
        policy (each attempt is a fresh request id).

        When trace propagation is on (see ``propagate_trace``), each
        attempt carries a fresh trace context on the wire and records a
        ``client.request`` span, so server-side request spans can be
        joined back to the exact client call (and retry) that caused
        them.
        """
        attempt = 0
        while True:
            ctx: Optional[TraceContext] = None
            t0 = 0.0
            if self._tracing():
                ctx = TraceContext(new_trace_id(), new_span_id())
                body["trace"] = ctx.to_obj()
                t0 = time.perf_counter()
            future = self._submit(op, body)
            await self._writer.drain()
            frame = await future
            if ctx is not None:
                self._record_client_span(op, ctx, t0, frame, attempt)
            try:
                return self._result_of(frame)
            except ServiceOverloadedError:
                if (
                    not self.retry_overloaded
                    or attempt >= self.backoff.max_retries
                ):
                    raise
                await asyncio.sleep(self.backoff.delay(attempt))
                attempt += 1

    @staticmethod
    def _record_client_span(
        op: str,
        ctx: TraceContext,
        t0: float,
        frame: Dict[str, Any],
        attempt: int,
    ) -> None:
        rtt = time.perf_counter() - t0
        if OBS.enabled:
            OBS.registry.histogram(
                "repro_client_request_seconds", op=op
            ).observe(rtt)
            tracer = OBS.tracer
            if tracer is not None:
                tracer.record_span(
                    "client.request",
                    start=t0,
                    duration=rtt,
                    op=op,
                    ok=bool(frame.get("ok", False)),
                    trace_id=ctx.trace_id,
                    span_hex=ctx.span_id,
                    attempt=attempt,
                )

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #

    async def admit(self, flow: FlowSpec) -> WireDecision:
        result = await self.request(
            "admit", flow=protocol.flow_to_obj(flow)
        )
        return WireDecision(
            flow_id=flow.flow_id,
            admitted=bool(result["admitted"]),
            reason=result.get("reason", ""),
            batch_size=int(result.get("batch_size", 1)),
        )

    async def release(self, flow_id: Hashable) -> bool:
        result = await self.request("release", flow_id=flow_id)
        return bool(result.get("released", False))

    async def batch(
        self, ops: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Submit a batch frame; returns the per-sub-op result objects
        (``{"ok": ..., "result"|"error": ...}``), one per input op.

        On a v2 connection a batch of plain admit/release ops travels
        as one packed binary bulk frame (the server's fast path); any
        op the packer cannot represent — and any batch while trace
        propagation is on, since packed frames carry no trace context —
        falls back to a JSON carrier ``batch``, whose validation errors
        are byte-identical to v1's.
        """
        if self._proto == 2 and not self._tracing():
            packed = protocol.pack_batch_ops(ops)
            if packed is not None:
                return await self.bulk(packed)
        result = await self.request("batch", ops=ops)
        return list(result.get("results", []))

    async def bulk(
        self, subops: List[List[Any]], *, raw: bool = False
    ) -> List[Any]:
        """One packed bulk round-trip (v2 connections only), with the
        same ``overloaded`` retry loop as :meth:`request`.

        ``subops`` are packed arrays (``[0, flow_id, cls, src, dst,
        route|null[, pri]]`` admits / ``[1, flow_id]`` releases) — the binary
        protocol's native shape, bypassing op-dict packing entirely.
        With ``raw=True`` the packed result slots come back undecoded
        (``[0, reason, batch_size]`` admitted / ``[1, reason,
        batch_size]`` rejected / ``[2]`` released / ``[3, code,
        message]`` error); otherwise each slot is expanded to the same
        result object :meth:`batch` returns.
        """
        if self._proto != 2:
            raise ServiceError(
                "bulk frames require a v2-negotiated connection"
            )
        attempt = 0
        while True:
            if self._closed:
                raise ServiceError("client is closed")
            self._next_id += 1
            rid = self._next_id
            future = asyncio.get_running_loop().create_future()
            self._pending[rid] = future
            try:
                self._writer.write(
                    protocol.encode_bulk_request(rid, subops)
                )
                await self._writer.drain()
            except (ConnectionError, RuntimeError, OSError) as exc:
                self._pending.pop(rid, None)
                raise ServiceError(f"connection lost: {exc}") from exc
            frame = await future
            packed = frame.get("_packed")
            if packed is not None:
                if raw:
                    return packed
                return protocol.unpack_bulk_results(packed)
            # Carrier-shaped response: only errors arrive this way for
            # a bulk request (e.g. an ``overloaded`` shed).
            try:
                return list(self._result_of(frame).get("results", []))
            except ServiceOverloadedError:
                if (
                    not self.retry_overloaded
                    or attempt >= self.backoff.max_retries
                ):
                    raise
                await asyncio.sleep(self.backoff.delay(attempt))
                attempt += 1

    async def query(self, flow_id: Hashable) -> bool:
        result = await self.request("query", flow_id=flow_id)
        return bool(result.get("established", False))

    async def stats(self) -> Dict[str, Any]:
        return await self.request("stats")

    async def health(self) -> Dict[str, Any]:
        return await self.request("health")

    async def snapshot(self) -> Dict[str, Any]:
        return await self.request("snapshot")

    async def cluster(self) -> Optional[Dict[str, Any]]:
        """Cluster topology when connected to a front door, else None.

        A single-process server answers ``unknown_op`` for the
        router-only ``cluster`` discovery op; that is mapped to None so
        callers can branch without exception plumbing.
        """
        try:
            return await self.request("cluster")
        except ProtocolError as exc:
            if exc.code == protocol.UNKNOWN_OP:
                return None
            raise


def _mapped_error(code: str, message: str) -> Exception:
    if code == protocol.OVERLOADED:
        return ServiceOverloadedError(message)
    if code == protocol.ADMISSION_ERROR:
        return AdmissionError(message)
    return ProtocolError(code, message)


class ServiceClient:
    """Synchronous facade over :class:`AsyncServiceClient`.

    Owns a private event loop, so it works from any plain (non-async)
    context: the workload driver, benchmarks, tests, the CLI.  Use as a
    context manager or call :meth:`close`.
    """

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        backoff: BackoffPolicy = BackoffPolicy(base=0.01, max_retries=5),
        retry_overloaded: bool = True,
        propagate_trace: Optional[bool] = None,
        protocol: str = "v1",
    ):
        if (socket_path is None) == (host is None):
            raise ServiceError(
                "specify exactly one of socket_path or host/port"
            )
        if host is not None and port is None:
            raise ServiceError("TCP target needs a port")
        self._loop = asyncio.new_event_loop()
        try:
            if socket_path is not None:
                self._client = self._loop.run_until_complete(
                    AsyncServiceClient.connect_unix(
                        socket_path,
                        backoff=backoff,
                        retry_overloaded=retry_overloaded,
                        propagate_trace=propagate_trace,
                        protocol=protocol,
                    )
                )
            else:
                assert host is not None and port is not None
                self._client = self._loop.run_until_complete(
                    AsyncServiceClient.connect_tcp(
                        host,
                        port,
                        backoff=backoff,
                        retry_overloaded=retry_overloaded,
                        propagate_trace=propagate_trace,
                        protocol=protocol,
                    )
                )
        except BaseException:
            self._loop.close()
            raise

    @property
    def negotiated_protocol(self) -> str:
        return self._client.negotiated_protocol

    # ------------------------------------------------------------------ #

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def admit(self, flow: FlowSpec) -> WireDecision:
        return self._run(self._client.admit(flow))

    def release(self, flow_id: Hashable) -> bool:
        return self._run(self._client.release(flow_id))

    def batch(self, ops: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return self._run(self._client.batch(ops))

    def bulk(
        self, subops: List[List[Any]], *, raw: bool = False
    ) -> List[Any]:
        return self._run(self._client.bulk(subops, raw=raw))

    def query(self, flow_id: Hashable) -> bool:
        return self._run(self._client.query(flow_id))

    def stats(self) -> Dict[str, Any]:
        return self._run(self._client.stats())

    def health(self) -> Dict[str, Any]:
        return self._run(self._client.health())

    def snapshot(self) -> Dict[str, Any]:
        return self._run(self._client.snapshot())

    def cluster(self) -> Optional[Dict[str, Any]]:
        return self._run(self._client.cluster())

    def request(self, op: str, **body: Any) -> Dict[str, Any]:
        return self._run(self._client.request(op, **body))

    def close(self) -> None:
        if not self._loop.is_closed():
            self._run(self._client.close())
            self._loop.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
