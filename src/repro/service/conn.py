"""The one connection layer of the admission service.

Every socket the service speaks on goes through this module: the
accepting side (:class:`ConnectionLayer`, serving an ``AdmissionService``
or a ``ClusterRouter`` — it cannot tell which) and the dialling side
(:func:`propose_v2` and :func:`read_responses`, shared by
``AsyncServiceClient`` and the router's ``WorkerLink``).  The frame
grammar lives in :mod:`repro.service.protocol`; this module owns what
happens *between* frames (``docs/service.md``, "Connection layer").

**The fault rule.**  A frame is first *delimited* (:func:`read_line`,
:func:`read_frame`), then *decoded*.  While the delimiter can be trusted
— the line ended in a newline within the limit, the length prefix was
sane and the payload arrived — whatever is wrong inside the frame is
answered with a structured error and the connection keeps serving.  When
it cannot (an over-limit line, a zero or oversized length prefix, v1
text on a v2 connection) the next frame cannot be found: the accepting
side answers once and closes, the dialling side ends the connection and
fails whoever was waiting on it.  The fault stays on its own connection.

**The handler contract** is :class:`FrameHandler`: two *synchronous*
entry points, called from inside the read loop before the next frame is
read, which is what makes one connection's decisions order-identical to
sequential submission.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Callable, Coroutine, Dict, Optional, Protocol, Set

from ..errors import ProtocolError
from . import protocol
from .protocol import RequestId

__all__ = [
    "Connection",
    "ConnectionLayer",
    "FrameHandler",
    "close_writer",
    "propose_v2",
    "read_responses",
]

logger = logging.getLogger("repro.service")

_LATE_HELLO = ProtocolError(
    protocol.BAD_REQUEST, "hello must be the first request on a connection"
)
_SCHEMAS = (protocol.PROTOCOL_SCHEMA, protocol.PROTOCOL_SCHEMA_V2)

#: What a handler entry point returns: the response half of a request.
Work = Coroutine[Any, Any, None]


async def read_line(
    reader: asyncio.StreamReader, max_bytes: int
) -> Optional[bytes]:
    """One newline-terminated v1 line; ``None`` at EOF (also mid-line).

    Raises :class:`ProtocolError` (``frame_too_large``) when the line
    outruns the stream limit — the rest of the stream is unparseable.
    """
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise ProtocolError(
            protocol.FRAME_TOO_LARGE, f"frame exceeds {max_bytes} bytes"
        ) from None
    return line if line.endswith(b"\n") else None


async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int
) -> Optional[bytes]:
    """Payload of one length-prefixed v2 frame; ``None`` at EOF (also
    mid-header or mid-payload — nothing attributable was received).

    Raises :class:`ProtocolError` when the length prefix cannot be
    trusted, after which the stream cannot be resynchronized.
    """
    try:
        header = await reader.readexactly(protocol.FRAME_HEADER_BYTES)
        length = int.from_bytes(header, "big")
        if length == 0:
            raise ProtocolError(protocol.BAD_REQUEST, "zero-length v2 frame")
        if length > max_bytes:
            if header[0:1] == b"{":
                # A v1 JSON line read as a length prefix: '{' makes the
                # "length" >= 2 GiB, far past any real frame.
                raise ProtocolError(
                    protocol.BAD_REQUEST,
                    "v1 text frame on a v2-negotiated connection",
                )
            raise ProtocolError(
                protocol.FRAME_TOO_LARGE,
                f"v2 frame of {length} bytes exceeds the "
                f"{max_bytes}-byte limit",
            )
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        return None


def close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        if not writer.is_closing():
            writer.close()
    except Exception:  # pragma: no cover - platform-specific teardown
        pass


def _answer(rid: Optional[RequestId], exc: ProtocolError) -> Dict[str, Any]:
    return protocol.error_response(rid, exc.code, str(exc))


# ---------------------------------------------------------------------- #
# accepting side
# ---------------------------------------------------------------------- #


class Connection:
    """Per-connection state: stream pair, write lock, in-flight ids,
    and the negotiated protocol generation (1 = JSON lines, 2 = binary
    frames)."""

    __slots__ = (
        "reader", "writer", "lock", "inflight", "proto", "saw_request"
    )

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        self.inflight: Set[RequestId] = set()
        self.proto = 1
        self.saw_request = False

    async def send(self, response: Dict[str, Any]) -> None:
        """Encode per the negotiated generation and write (on a v2
        connection the v1-shaped object rides a JSON carrier frame)."""
        if self.proto == 2:
            frame = protocol.encode_frame_v2(response)
        else:
            frame = protocol.encode_frame(response)
        await self.send_raw(frame)

    async def send_raw(self, frame: bytes) -> None:
        """Write one whole frame; concurrent senders take turns."""
        try:
            async with self.lock:
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            # Peer vanished mid-response; the decision is already
            # committed, nothing to unwind.
            logger.debug("dropped a response to a closed connection")


class FrameHandler(Protocol):
    """What :class:`ConnectionLayer` needs from the service behind it.

    Both entry points run synchronously inside the read loop: whatever
    they submit (to the coalescer, to a worker link's outbox) is
    submitted in frame order.  Each returns the coroutine that awaits
    the outcome and writes the response; the layer runs it as a tracked
    task and releases the request id when it ends.  A ``ProtocolError``
    they raise is answered under the request's id, anything else as
    ``internal`` — one request never tears down the read loop.
    """

    #: Lifetime counters; the layer bumps ``requests``, ``errors`` and
    #: ``connections``.
    counts: Dict[str, int]

    def frame_context(self) -> Any:
        """Called once per delimited frame, before it is decoded; the
        value is handed back to the entry point unopened (per-request
        telemetry lives here, or ``None``)."""

    def begin_request(
        self, conn: Connection, request: protocol.Request, ctx: Any
    ) -> Work:
        """Begin one parsed request."""

    def begin_bulk(
        self, conn: Connection, rid: RequestId, subops: list, ctx: Any
    ) -> Work:
        """Begin one packed bulk frame."""


class ConnectionLayer:
    """Read loops, negotiation and response tasks of one listener."""

    def __init__(
        self, handler: FrameHandler, max_frame_bytes: int, negotiate_v2: bool
    ):
        self.handler = handler
        self.counts = handler.counts
        self.max_frame_bytes = int(max_frame_bytes)
        #: Accept ``hello`` upgrades to v2 framing; ``False`` behaves
        #: exactly like a pre-v2 build (hello earns ``unknown_op``).
        self.negotiate_v2 = bool(negotiate_v2)
        self.connections: Set[Connection] = set()
        self._tasks: Set["asyncio.Task"] = set()

    async def serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """``client_connected_cb`` of the listener: read until EOF.

        A draining handler keeps answering (``unavailable``); its drain
        closes the connection once everything in flight is written.
        """
        conn = Connection(reader, writer)
        self.connections.add(conn)
        self.counts["connections"] += 1
        try:
            if await self._read_v1(conn):
                await self._read_v2(conn)
        except (ConnectionError, OSError):
            pass  # peer reset: same as EOF
        finally:
            self.connections.discard(conn)
            close_writer(conn.writer)

    async def settle(self) -> None:
        """Let every already-begun request reach its response.

        The read loops stay live until :meth:`close`, so a request
        parsed during one gather can add a task: loop until none is
        left (a draining handler answers new arrivals at once).
        """
        while self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)

    def close(self) -> None:
        for conn in tuple(self.connections):
            close_writer(conn.writer)
        self.connections.clear()

    async def _read_v1(self, conn: Connection) -> bool:
        """Newline-delimited JSON loop; True when upgraded to v2."""
        while True:
            try:
                line = await read_line(conn.reader, self.max_frame_bytes)
            except ProtocolError as exc:
                await conn.send(_answer(None, exc))
                return False
            if line is None:
                return False
            if not line.strip():
                continue
            hello = self._peek_hello(line) if self.negotiate_v2 else None
            if hello is not None:
                if await self._negotiate(conn, hello):
                    conn.proto = 2
                    return True
                continue
            self.counts["requests"] += 1
            ctx = self.handler.frame_context()
            try:
                request = protocol.parse_request(
                    line, max_bytes=self.max_frame_bytes
                )
            except ProtocolError as exc:
                self._refuse(conn, None, exc)
                continue
            self._begin_request(conn, request, ctx)

    async def _read_v2(self, conn: Connection) -> None:
        """Length-prefixed binary frame loop (after negotiation)."""
        while True:
            try:
                payload = await read_frame(conn.reader, self.max_frame_bytes)
            except ProtocolError as exc:
                self.counts["errors"] += 1
                await conn.send(_answer(None, exc))
                return
            if payload is None:
                return
            self.counts["requests"] += 1
            ctx = self.handler.frame_context()
            try:
                tag, obj = protocol.decode_payload_v2(
                    payload, max_bytes=self.max_frame_bytes
                )
                if tag == protocol.TAG_RESULTS:
                    raise ProtocolError(
                        protocol.BAD_REQUEST,
                        "unexpected bulk-response frame from a client",
                    )
                if tag == protocol.TAG_JSON:
                    obj = protocol.request_from_obj(obj)
            except ProtocolError as exc:
                # Well-delimited, so the stream is still in sync.
                self._refuse(conn, None, exc)
                continue
            if tag == protocol.TAG_JSON:
                self._begin_request(conn, obj, ctx)
            else:
                rid, subops = protocol.parse_bulk_request(obj)
                self._begin(
                    conn, rid, self.handler.begin_bulk, rid, subops, ctx
                )

    def _peek_hello(self, line: bytes) -> Optional[protocol.Request]:
        """The parsed request iff this line is a ``hello``."""
        if b'"hello"' not in line:
            return None
        try:
            request = protocol.parse_request(
                line, max_bytes=self.max_frame_bytes
            )
        except ProtocolError:
            return None  # the ordinary path produces the canonical error
        return request if request.op == protocol.HELLO_OP else None

    async def _negotiate(
        self, conn: Connection, request: protocol.Request
    ) -> bool:
        """Answer one ``hello``; True when the connection upgrades to v2.

        Negotiation happens before any ordinary request id exists on
        the connection (clients send hello first, on the reserved id
        0); a hello arriving later is refused so in-flight v1 responses
        can never interleave with binary frames.  The answer is always
        a v1 line, written before the caller flips the mode, so the
        client can switch its own parser the moment it reads it.
        """
        self.counts["requests"] += 1
        refusal = _LATE_HELLO
        if not conn.saw_request:
            conn.saw_request = True
            proposed = request.body.get("protocol")
            if proposed in _SCHEMAS:
                await conn.send(
                    protocol.ok_response(request.id, {"protocol": proposed})
                )
                return proposed == protocol.PROTOCOL_SCHEMA_V2
            refusal = ProtocolError(
                protocol.BAD_REQUEST,
                f"unsupported protocol {proposed!r} "
                f"(supported: {', '.join(_SCHEMAS)})",
            )
        self.counts["errors"] += 1
        await conn.send(_answer(request.id, refusal))
        return False

    def _begin_request(
        self, conn: Connection, request: protocol.Request, ctx: Any
    ) -> None:
        conn.saw_request = True
        if request.op == protocol.HELLO_OP and self.negotiate_v2:
            # A hello after the first request (v1), or inside a v2
            # carrier frame: renegotiation is not supported.  (With
            # negotiation disabled, hello falls through to the handler's
            # unknown-op answer — exactly what a pre-v2 build says.)
            self._refuse(conn, request.id, _LATE_HELLO)
            return
        self._begin(
            conn, request.id, self.handler.begin_request, request, ctx
        )

    def _begin(
        self,
        conn: Connection,
        rid: RequestId,
        entry: Callable[..., Work],
        *args: Any,
    ) -> None:
        """Call one handler entry point and start its response task."""
        if rid in conn.inflight:
            message = (
                f"request id {rid!r} is already in flight "
                "on this connection"
            )
            self._refuse(
                conn, rid, ProtocolError(protocol.DUPLICATE_ID, message)
            )
            return
        try:
            work = entry(conn, *args)
        except ProtocolError as exc:
            self._refuse(conn, rid, exc)
            return
        except Exception as exc:  # defensive: never tear down the
            # read loop over one request — answer and keep serving.
            logger.exception("internal error beginning request %r", rid)
            message = f"{type(exc).__name__}: {exc}"
            self._refuse(conn, rid, ProtocolError(protocol.INTERNAL, message))
            return
        conn.inflight.add(rid)
        self._spawn(self._run(conn, rid, work))

    @staticmethod
    async def _run(conn: Connection, rid: RequestId, work: Work) -> None:
        try:
            await work
        finally:
            conn.inflight.discard(rid)

    def _refuse(
        self, conn: Connection, rid: Optional[RequestId], exc: ProtocolError
    ) -> None:
        """Count one error and answer it without blocking the read
        loop (the write may have to wait for a slow reader)."""
        self.counts["errors"] += 1
        self._spawn(conn.send(_answer(rid, exc)))

    def _spawn(self, work: Work) -> None:
        task = asyncio.get_running_loop().create_task(work)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)


# ---------------------------------------------------------------------- #
# dialling side
# ---------------------------------------------------------------------- #


async def propose_v2(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, max_bytes: int
) -> int:
    """Propose v2 framing on a fresh connection; the settled generation.

    The ``hello`` rides the reserved id 0 and its answer is read inline,
    so it must run before anything else reads from or writes to the
    stream, and no ordinary request id is consumed.  A peer that
    predates ``hello`` (``unknown_op``) or refuses upgrades
    (``bad_request``) keeps the connection on v1.  Raises
    :class:`ConnectionError` when the peer hangs up and
    :class:`ProtocolError` for any other answer.
    """
    hello = {
        "id": protocol.HELLO_ID,
        "op": protocol.HELLO_OP,
        "protocol": protocol.PROTOCOL_SCHEMA_V2,
    }
    writer.write(protocol.encode_frame(hello))
    await writer.drain()
    line = await read_line(reader, max_bytes)
    if line is None:
        raise ConnectionError(
            "peer closed the connection during protocol negotiation"
        )
    frame = protocol.decode_frame(line, max_bytes=max_bytes)
    if frame.get("ok"):
        agreed = frame.get("result", {}).get("protocol")
        if agreed != protocol.PROTOCOL_SCHEMA_V2:
            raise ProtocolError(
                protocol.BAD_REQUEST,
                f"peer answered hello with unexpected protocol {agreed!r}",
            )
        return 2
    err = frame.get("error", {})
    code = err.get("code", protocol.INTERNAL)
    if code not in (protocol.UNKNOWN_OP, protocol.BAD_REQUEST):
        raise ProtocolError(code, err.get("message", "negotiation failed"))
    return 1


async def read_responses(
    reader: asyncio.StreamReader,
    proto: int,
    max_bytes: int,
    deliver: Callable[[Dict[str, Any]], None],
) -> None:
    """Hand every response frame from the peer to ``deliver`` until EOF.

    Frames arrive v1-shaped; a packed ``R`` frame arrives as
    ``{"id", "ok": True, "_packed": slots}`` so a raw consumer never
    pays for unpacking.  Returns at EOF.  A frame that cannot be
    delimited or decoded raises :class:`ProtocolError`: the stream is
    lost and the caller must fail whatever is waiting on it.
    """
    while proto != 2:  # v1 for the life of the stream: leaves by return
        line = await read_line(reader, max_bytes)
        if line is None:
            return
        if line.strip():
            deliver(protocol.decode_frame(line, max_bytes=max_bytes))
    while True:
        payload = await read_frame(reader, max_bytes)
        if payload is None:
            return
        tag, obj = protocol.decode_payload_v2(payload, max_bytes=max_bytes)
        if tag == protocol.TAG_RESULTS:
            rid, slots = protocol.parse_bulk_request(obj)
            deliver({"id": rid, "ok": True, "_packed": slots})
        elif tag == protocol.TAG_JSON:
            deliver(obj)
        else:
            raise ProtocolError(
                protocol.BAD_REQUEST,
                "unexpected bulk-request frame from the peer",
            )
