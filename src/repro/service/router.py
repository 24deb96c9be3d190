"""Front-door router of the multi-worker admission cluster.

One asyncio process accepts client connections on the cluster's public
socket and dispatches every admission op to the worker that owns the
flow, keeping the ``repro-admission-rpc/v1`` wire protocol byte-for-byte
unchanged for clients:

* **consistent-hash dispatch** — :class:`HashRing` maps flow ids to
  workers with :func:`hashlib.blake2b` (never Python's per-process
  salted ``hash()``), so the assignment is a pure function of the
  worker count: every router process, every restart, and every client
  that wants to bypass the front door computes the same owner.  Admit,
  release and query of one flow therefore always land on the worker
  that committed it — release/query routing falls out of the hash, no
  lookup table needed;
* **order-preserving forwarding** — clients are served through the same
  :mod:`repro.service.conn` layer as a single server; this class is its
  handler, and submits to the owning :class:`WorkerLink`'s outbox
  *synchronously*, before the next frame is read, so one connection's
  ops for one flow reach the worker in exactly the order they were sent;
* **batch splitting** — a ``batch`` frame is split per owner (slot
  positions preserved) and re-merged into one response; a sub-op too
  malformed to route is forwarded to worker 0, whose validation answer
  is bit-identical to any other worker's (malformed ops never touch
  state);
* **aggregation** — ``stats``/``health`` fan out to every worker and
  come back as one cluster view (summed counters, worst status,
  ``per_worker`` breakdown incl. pids), which also feeds the
  ``/metrics`` endpoint; the router-only ``cluster`` op advertises the
  worker sockets and ring parameters so a multi-connection load
  generator can connect to workers directly.

A dead worker fails its in-flight requests with ``unavailable`` (the
supervisor restarts it and the link reconnects); requests for flows
hashed to live workers are untouched — the paper's per-link, no-shared-
state admission test is what makes this partition-tolerant.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import logging
import time
from typing import (
    Any,
    Awaitable,
    Callable,
    Coroutine,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ProtocolError, ServiceError
from ..obs import OBS, to_prometheus_text
from ..obs.process import process_text, startup_seconds
from . import protocol
from .conn import (
    Connection,
    ConnectionLayer,
    close_writer,
    propose_v2,
    read_responses,
)

__all__ = ["HashRing", "WorkerLink", "ClusterRouter"]

logger = logging.getLogger("repro.service")

#: Ring salt: part of the advertised parameters, never derived from
#: process state, so every participant builds the identical ring.
DEFAULT_RING_SALT = "repro-cluster"
DEFAULT_VIRTUAL_NODES = 64


def _hash64(key: str) -> int:
    """Stable 64-bit hash (blake2b) — identical across processes."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(),
        "big",
    )


class HashRing:
    """Consistent hashing of flow ids onto worker indices.

    A pure function of ``(workers, virtual_nodes, salt)``: rebuilding
    the ring after any restart yields the same assignment, and growing
    the cluster from ``n`` to ``n+1`` workers remaps only ``~1/(n+1)``
    of the id space (the consistent-hashing property the tests bound).
    """

    def __init__(
        self,
        workers: int,
        *,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        salt: str = DEFAULT_RING_SALT,
    ):
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
        if virtual_nodes < 1:
            raise ServiceError(
                f"need at least one virtual node, got {virtual_nodes}"
            )
        self.workers = int(workers)
        self.virtual_nodes = int(virtual_nodes)
        self.salt = str(salt)
        points: List[Tuple[int, int]] = []
        for w in range(workers):
            for v in range(virtual_nodes):
                points.append((_hash64(f"{salt}/{w}/{v}"), w))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [w for _, w in points]

    def worker_of(self, flow_id: Hashable) -> int:
        """Index of the worker owning a flow id."""
        # Type-tagged so the str "1" and the int 1 (both legal wire
        # flow ids) hash independently.
        tag = "s" if isinstance(flow_id, str) else "i"
        h = _hash64(f"{self.salt}#{tag}:{flow_id}")
        i = bisect.bisect_right(self._hashes, h) % len(self._hashes)
        return self._owners[i]

    def params(self) -> Dict[str, Any]:
        """Wire-advertised ring parameters (the ``cluster`` op)."""
        return {
            "workers": self.workers,
            "virtual_nodes": self.virtual_nodes,
            "salt": self.salt,
        }


class WorkerLink:
    """One persistent router→worker connection.

    Requests enter through :meth:`call` — a **synchronous** enqueue
    onto an ordered outbox, so the caller controls ordering — and are
    written by a single writer task with router-local request ids; a
    reader task matches responses back to futures.  When the worker
    dies, every sent-but-unanswered request resolves to an
    ``unavailable`` error frame and the link reconnects with backoff
    until the supervisor has the worker back; ops still queued in the
    outbox (never written) survive the reconnect, and :meth:`stop`
    answers them ``unavailable`` too, so no caller waits forever and
    no op is silently dropped.
    """

    def __init__(
        self,
        index: int,
        socket_path: str,
        *,
        max_pending: int = 16384,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        reconnect_delay: float = 0.1,
        link_protocol: str = "v2",
    ):
        self.index = int(index)
        self.socket_path = str(socket_path)
        self.max_pending = int(max_pending)
        self.max_frame_bytes = int(max_frame_bytes)
        self.reconnect_delay = float(reconnect_delay)
        #: Propose the v2 binary framing on every (re)connect; a worker
        #: that answers ``unknown_op`` keeps the link on v1 — the hop
        #: downgrades transparently, exactly like the public client.
        self.want_v2 = link_protocol in (
            "v2",
            protocol.PROTOCOL_SCHEMA_V2,
        )
        self.proto = 1
        self.connects = 0
        self.failed_calls = 0
        self._outbox: "asyncio.Queue[Tuple[int, Dict[str, Any], asyncio.Future]]" = (
            asyncio.Queue()
        )
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._next_id = 0
        self._closed = False
        self._up = False
        self._task: Optional["asyncio.Task"] = None

    # -------------------------------------------------------------- #

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name=f"repro-cluster-link-{self.index}"
            )

    async def stop(self) -> None:
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None
        while not self._outbox.empty():
            # Never written, never will be: these fail with the rest.
            rid, _frame, future = self._outbox.get_nowait()
            self._pending[rid] = future
        self._fail_all("link closed")

    @property
    def up(self) -> bool:
        """Connected right now (best effort; may lag a crash)."""
        return self._up

    @property
    def pending(self) -> int:
        return len(self._pending) + self._outbox.qsize()

    def call(
        self, op: str, body: Dict[str, Any]
    ) -> "asyncio.Future":
        """Enqueue one op; the future resolves to the worker's raw
        response frame (or an ``unavailable`` error frame on link
        death).  Synchronous, so enqueue order == caller order.
        """
        if self._closed:
            raise ProtocolError(
                protocol.UNAVAILABLE,
                f"worker {self.index} link is closed",
            )
        if self.pending >= self.max_pending:
            raise ProtocolError(
                protocol.OVERLOADED,
                f"worker {self.index} link has {self.pending} ops in "
                f"flight (limit {self.max_pending}); retry later",
            )
        self._next_id += 1
        rid = self._next_id
        frame: Dict[str, Any] = {"id": rid, "op": op}
        frame.update(body)
        future = asyncio.get_running_loop().create_future()
        self._outbox.put_nowait((rid, frame, future))
        return future

    # -------------------------------------------------------------- #

    def _unavailable(self, why: str) -> Dict[str, Any]:
        return protocol.error_response(
            None,
            protocol.UNAVAILABLE,
            f"worker {self.index} is unavailable ({why}); "
            "the supervisor is restarting it",
        )

    def _fail_all(self, why: str) -> None:
        """Fail every sent-but-unanswered request (outbox items were
        never written; they stay queued for the next connection)."""
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                self.failed_calls += 1
                future.set_result(self._unavailable(why))

    async def _run(self) -> None:
        try:
            while not self._closed:
                try:
                    reader, writer = await asyncio.open_unix_connection(
                        self.socket_path, limit=self.max_frame_bytes
                    )
                except (ConnectionError, OSError):
                    await asyncio.sleep(self.reconnect_delay)
                    continue
                try:
                    # Before the write loop starts, so the hello never
                    # interleaves with forwarded requests.
                    self.proto = (
                        await propose_v2(
                            reader, writer, self.max_frame_bytes
                        )
                        if self.want_v2
                        else 1
                    )
                except (ConnectionError, OSError, ProtocolError):
                    close_writer(writer)
                    await asyncio.sleep(self.reconnect_delay)
                    continue
                self.connects += 1
                self._up = True
                write_task = asyncio.get_running_loop().create_task(
                    self._write_loop(writer)
                )
                why = "connection closed"
                try:
                    await read_responses(
                        reader,
                        self.proto,
                        self.max_frame_bytes,
                        self._settle,
                    )
                except (ProtocolError, ConnectionError, OSError) as exc:
                    # An undecodable worker frame loses the stream just
                    # like a reset does: reconnecting resynchronizes.
                    why = str(exc)
                finally:
                    self._up = False
                    write_task.cancel()
                    await asyncio.gather(
                        write_task, return_exceptions=True
                    )
                    close_writer(writer)
                    self._fail_all("connection lost")
                logger.warning(
                    "lost worker %d on %s (%s); reconnecting",
                    self.index,
                    self.socket_path,
                    why,
                )
                await asyncio.sleep(self.reconnect_delay)
        except asyncio.CancelledError:
            pass

    def _encode(self, frame: Dict[str, Any]) -> bytes:
        """Wire bytes for one outbound frame on the settled protocol.

        On a v2 hop, a plain ``batch`` frame (no trace or other extras)
        is re-packed into a binary bulk frame — the worker's fast path —
        with the v1-shaped results restored by :meth:`_settle`.
        """
        if self.proto != 2:
            return protocol.encode_frame(frame)
        if frame.get("op") == "batch" and frame.keys() == {
            "id",
            "op",
            "ops",
        }:
            packed = protocol.pack_batch_ops(frame["ops"])
            if packed is not None:
                return protocol.encode_bulk_request(frame["id"], packed)
        return protocol.encode_frame_v2(frame)

    async def _write_loop(self, writer: asyncio.StreamWriter) -> None:
        while True:
            rid, frame, future = await self._outbox.get()
            if future.done():  # caller vanished; skip the write
                continue
            self._pending[rid] = future
            try:
                writer.write(self._encode(frame))
                await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                # The read loop observes the same death and fails every
                # pending future (including this one).
                return

    def _settle(self, frame: Dict[str, Any]) -> None:
        packed = frame.pop("_packed", None)
        if packed is not None:
            # v1-shaped results, so the router's merge logic never sees
            # which framing the hop negotiated.
            frame["result"] = {
                "results": protocol.unpack_bulk_results(packed)
            }
        future = self._pending.pop(frame.get("id"), None)
        if future is not None and not future.done():
            future.set_result(frame)


#: Worker-stat counter keys summed into the cluster view.
_SUMMED_KEYS = (
    "requests",
    "admitted",
    "rejected",
    "released",
    "errors",
    "shed",
    "connections",
    "snapshots",
    "restored",
    "batches",
    "coalesced_ops",
    "established",
    "queue_depth",
    "decisions_total",
    "admitted_total",
    "rejected_total",
)

_STATUS_RANK = {"ok": 0, "degraded": 1, "overloaded": 2, "draining": 3}


class ClusterRouter:
    """Route one front-door socket onto N admission workers."""

    def __init__(
        self,
        worker_sockets: Sequence[str],
        *,
        ring: Optional[HashRing] = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        link_max_pending: int = 16384,
        on_snapshot: Optional[
            Callable[[], Awaitable[Dict[str, Any]]]
        ] = None,
        extra_stats: Optional[Callable[[], Dict[str, Any]]] = None,
        negotiate_v2: bool = True,
        link_protocol: str = "v2",
    ):
        if not worker_sockets:
            raise ServiceError("cluster needs at least one worker")
        self.worker_sockets = [str(p) for p in worker_sockets]
        self.ring = ring or HashRing(len(worker_sockets))
        if self.ring.workers != len(worker_sockets):
            raise ServiceError(
                f"ring is sized for {self.ring.workers} workers, "
                f"got {len(worker_sockets)} sockets"
            )
        self.max_frame_bytes = int(max_frame_bytes)
        #: Async callback (the supervisor's merge) behind the
        #: ``snapshot`` op; None answers ``unavailable``.
        self.on_snapshot = on_snapshot
        #: Extra synchronous key/values merged into cluster stats
        #: (the supervisor contributes restart counts).
        self.extra_stats = extra_stats
        self.links = [
            WorkerLink(
                i,
                path,
                max_pending=link_max_pending,
                max_frame_bytes=max_frame_bytes,
                link_protocol=link_protocol,
            )
            for i, path in enumerate(self.worker_sockets)
        ]
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._started_at = time.time()
        self._where = "?"
        self.counts: Dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "connections": 0,
            "forwarded": 0,
        }
        #: Clients are served by the same layer as a single server's, so
        #: they cannot tell a front door from a worker by construction.
        self._layer = ConnectionLayer(
            self,
            max_frame_bytes=max_frame_bytes,
            negotiate_v2=negotiate_v2,
        )

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    async def start_unix(self, path: str) -> None:
        """Connect every worker link and open the front door."""
        import os

        for link in self.links:
            link.start()
        if os.path.exists(path):
            os.unlink(path)
        self._server = await asyncio.start_unix_server(
            self._layer.serve,
            path=path,
            limit=self.max_frame_bytes,
        )
        self._where = path
        self._started_at = time.time()
        logger.info(
            "cluster front door on %s routing to %d workers",
            path,
            len(self.links),
        )

    async def stop(self) -> None:
        """Stop accepting, answer in-flight requests, close links."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # A down link never writes its queue: answer those requests
        # now, or settle() waits on them for as long as the shard is
        # gone.
        for link in self.links:
            if not link.up:
                await link.stop()
        await self._layer.settle()
        for link in self.links:
            await link.stop()
        self._layer.close()

    # -------------------------------------------------------------- #
    # conn.FrameHandler: the two synchronous entry points
    # -------------------------------------------------------------- #

    def frame_context(self) -> None:
        return None

    def begin_request(
        self, conn: Connection, request: protocol.Request, ctx: None
    ) -> Coroutine[Any, Any, None]:
        return self._finish(request, self._begin(request), conn)

    def begin_bulk(
        self,
        conn: Connection,
        rid: protocol.RequestId,
        subops: list,
        ctx: None,
    ) -> Coroutine[Any, Any, None]:
        """Split one packed bulk frame per owning worker.

        Each sub-op is validated by the codec function the single
        server uses (identical error strings), converted to its
        v1-shaped op, and forwarded in the owner's carrier ``batch``
        call — the worker link re-packs it to binary when its hop
        negotiated v2.  Slots that fail validation are decided here,
        exactly like the single server decides them before the
        coalescer.
        """
        if self._draining:
            return self._finish(
                protocol.Request(id=rid, op="bulk", body={}),
                protocol.error_response(
                    rid, protocol.UNAVAILABLE, "cluster is draining"
                ),
                conn,
            )
        fixed: Dict[int, Dict[str, Any]] = {}
        ops: List[Tuple[int, Any]] = []
        for slot, sub in enumerate(subops):
            try:
                ops.append((slot, protocol.unpack_batch_op(sub)))
            except ProtocolError as exc:
                fixed[slot] = {
                    "ok": False,
                    "error": {"code": exc.code, "message": str(exc)},
                }
        plan = (*self._forward_batch(ops, {}), len(subops))
        return self._finish_bulk(conn, rid, plan, fixed)

    async def _finish_bulk(
        self,
        conn: Connection,
        rid: protocol.RequestId,
        plan: Tuple[Any, ...],
        fixed: Dict[int, Dict[str, Any]],
    ) -> None:
        response = await self._finish_batch(rid, plan)
        results = response["result"]["results"]
        for slot, r in fixed.items():
            results[slot] = r
        if any(not r.get("ok", False) for r in results):
            self.counts["errors"] += 1
        await conn.send_raw(
            protocol.encode_bulk_response(
                rid, protocol.pack_bulk_results(results)
            )
        )

    # -------------------------------------------------------------- #
    # dispatch
    # -------------------------------------------------------------- #

    def _owner(self, flow_id: Any) -> WorkerLink:
        fid = protocol.validate_flow_id(flow_id)
        return self.links[self.ring.worker_of(fid)]

    def _begin(self, request: protocol.Request) -> Any:
        """Synchronous routing of one request.

        Returns a ready response dict, a single link future, a
        ``(futures, slot_map, n_slots, inline)`` batch plan, or a
        coroutine for the fan-out ops.
        """
        op = request.op
        body = request.body
        rid = request.id
        if op == "health":
            return self._cluster_health(rid)
        if op == "stats":
            return self._cluster_stats_response(rid)
        if op == "cluster":
            return protocol.ok_response(
                rid,
                {
                    "schema": protocol.PROTOCOL_SCHEMA,
                    "sockets": list(self.worker_sockets),
                    **self.ring.params(),
                },
            )
        if op == "snapshot":
            if self.on_snapshot is None:
                return protocol.error_response(
                    rid,
                    protocol.UNAVAILABLE,
                    "no snapshot path configured",
                )
            return self._cluster_snapshot(rid)
        if op not in ("admit", "release", "batch", "query"):
            return protocol.error_response(
                rid,
                protocol.UNKNOWN_OP,
                f"unknown op {op!r} (expected one of "
                f"{', '.join(protocol.OPS)} or cluster)",
            )
        if self._draining:
            return protocol.error_response(
                rid, protocol.UNAVAILABLE, "cluster is draining"
            )
        if op == "admit":
            flow = body.get("flow")
            if not isinstance(flow, dict) or "id" not in flow:
                # Let a worker produce the canonical validation error.
                return self._forward(self.links[0], op, body)
            return self._forward(
                self._owner(flow["id"]), op, body
            )
        if op in ("release", "query"):
            if "flow_id" not in body:
                raise ProtocolError(
                    protocol.BAD_REQUEST, f"{op} needs flow_id"
                )
            return self._forward(
                self._owner(body["flow_id"]), op, body
            )
        # batch: split per owning worker, slot positions preserved.
        ops = body.get("ops")
        if not isinstance(ops, list):
            raise ProtocolError(
                protocol.BAD_REQUEST, "batch needs an ops list"
            )
        extra = {k: v for k, v in body.items() if k != "ops"}
        return (*self._forward_batch(enumerate(ops), extra), len(ops))

    def _forward_batch(
        self, ops: Iterable[Tuple[int, Any]], extra: Dict[str, Any]
    ) -> Tuple[Dict[int, Any], Dict[int, List[int]]]:
        """Forward ``(slot, v1_sub_op)`` pairs as one ``batch`` call per
        owning worker: ``(futures, slot_map)``, both keyed by worker,
        ``slot_map[w]`` listing in order the slots worker ``w``
        answers."""
        per_worker: Dict[int, List[Any]] = {}
        slot_map: Dict[int, List[int]] = {}
        for slot, sub in ops:
            w = self._route_sub_op(sub)
            per_worker.setdefault(w, []).append(sub)
            slot_map.setdefault(w, []).append(slot)
        futures: Dict[int, Any] = {}
        for w, sub_ops in per_worker.items():
            try:
                futures[w] = self.links[w].call(
                    "batch", {"ops": sub_ops, **extra}
                )
            except ProtocolError as exc:
                futures[w] = protocol.error_response(
                    None, exc.code, str(exc)
                )
        self.counts["forwarded"] += len(per_worker)
        return futures, slot_map

    def _route_sub_op(self, sub: Any) -> int:
        """Owning worker of one batch sub-op.

        Unroutable (malformed) sub-ops go to worker 0: they never touch
        admission state, so any worker's validation answer is identical
        — and this keeps the error messages bit-compatible with the
        single-server path.
        """
        if not isinstance(sub, dict):
            return 0
        sub_op = sub.get("op")
        try:
            if sub_op == "admit":
                flow = sub.get("flow")
                if isinstance(flow, dict) and "id" in flow:
                    return self.ring.worker_of(
                        protocol.validate_flow_id(flow["id"])
                    )
            elif sub_op == "release" and "flow_id" in sub:
                return self.ring.worker_of(
                    protocol.validate_flow_id(sub["flow_id"])
                )
        except ProtocolError:
            return 0
        return 0

    def _forward(
        self, link: WorkerLink, op: str, body: Dict[str, Any]
    ) -> "asyncio.Future":
        self.counts["forwarded"] += 1
        return link.call(op, body)

    async def _finish(
        self,
        request: protocol.Request,
        pending: Any,
        conn: Connection,
    ) -> None:
        if isinstance(pending, dict):
            response = pending
        elif asyncio.isfuture(pending):
            frame = await pending
            response = self._restamp(frame, request.id)
        elif isinstance(pending, tuple):
            response = await self._finish_batch(request.id, pending)
        else:  # coroutine (fan-out op)
            response = await pending
        if not response.get("ok", False):
            self.counts["errors"] += 1
        await conn.send(response)

    @staticmethod
    def _restamp(
        frame: Dict[str, Any], rid: protocol.RequestId
    ) -> Dict[str, Any]:
        """Swap the router-local id back for the client's."""
        out = dict(frame)
        out["id"] = rid
        return out

    async def _finish_batch(
        self, rid: protocol.RequestId, plan: Tuple[Any, ...]
    ) -> Dict[str, Any]:
        futures, slot_map, n_slots = plan
        results: List[Any] = [None] * n_slots
        for w, pending in futures.items():
            slots = slot_map[w]
            if isinstance(pending, dict):  # link refused the call
                err = pending.get("error", {})
                fill = {"ok": False, "error": err}
                for slot in slots:
                    results[slot] = dict(fill)
                continue
            frame = await pending
            if frame.get("ok"):
                sub_results = frame.get("result", {}).get("results", [])
                if len(sub_results) != len(slots):
                    fill = {
                        "ok": False,
                        "error": {
                            "code": protocol.INTERNAL,
                            "message": (
                                f"worker {w} returned "
                                f"{len(sub_results)} results for "
                                f"{len(slots)} ops"
                            ),
                        },
                    }
                    for slot in slots:
                        results[slot] = dict(fill)
                else:
                    for slot, sub in zip(slots, sub_results):
                        results[slot] = sub
            else:
                err = frame.get("error", {})
                fill = {"ok": False, "error": err}
                for slot in slots:
                    results[slot] = dict(fill)
        return protocol.ok_response(rid, {"results": results})

    # -------------------------------------------------------------- #
    # fan-out ops and aggregation
    # -------------------------------------------------------------- #

    async def _fan_out(self, op: str) -> List[Optional[Dict[str, Any]]]:
        """One ``op`` per worker; ``None`` for unreachable workers."""
        futures: List[Any] = []
        for link in self.links:
            try:
                futures.append(link.call(op, {}))
            except ProtocolError:
                futures.append(None)
        out: List[Optional[Dict[str, Any]]] = []
        for future in futures:
            if future is None:
                out.append(None)
                continue
            frame = await future
            out.append(frame.get("result") if frame.get("ok") else None)
        return out

    def worker_stats(self) -> "Awaitable[List[Optional[Dict[str, Any]]]]":
        """Per-worker ``stats`` results (None for dead workers)."""
        return self._fan_out("stats")

    async def cluster_stats(self) -> Dict[str, Any]:
        """Aggregated cluster stats with a ``per_worker`` breakdown."""
        per_worker = await self.worker_stats()
        out: Dict[str, Any] = {
            "schema": protocol.PROTOCOL_SCHEMA,
            "controller": "cluster",
            "workers": len(self.links),
            "workers_up": sum(1 for s in per_worker if s is not None),
            "status": self._cluster_status(per_worker),
            "draining": self._draining,
            "uptime_seconds": max(0.0, time.time() - self._started_at),
            "startup_seconds": startup_seconds(self._started_at),
        }
        for key in _SUMMED_KEYS:
            out[key] = sum(
                int(s.get(key, 0))
                for s in per_worker
                if s is not None and s.get(key) is not None
            )
        # Memory of the workers (the router's own is on its /metrics).
        for key in ("rss_mb", "peak_rss_mb"):
            out[key] = round(
                sum(float(s.get(key) or 0.0) for s in per_worker if s), 1
            )
        out["shedding"] = any(
            bool(s.get("shedding")) for s in per_worker if s is not None
        )
        out["largest_batch"] = max(
            (int(s.get("largest_batch", 0)) for s in per_worker if s),
            default=0,
        )
        out["mean_batch_fill"] = (
            out["coalesced_ops"] / out["batches"]
            if out["batches"]
            else 0.0
        )
        out["slo"] = {
            "breaching": any(
                bool(s.get("slo", {}).get("breaching"))
                for s in per_worker
                if s is not None
            ),
        }
        out["router"] = {
            **{k: v for k, v in self.counts.items()},
            "links": [
                {
                    "worker": link.index,
                    "socket": link.socket_path,
                    "up": link.up,
                    "connects": link.connects,
                    "failed_calls": link.failed_calls,
                    "pending": link.pending,
                }
                for link in self.links
            ],
        }
        if self.extra_stats is not None:
            out.update(self.extra_stats())
        out["per_worker"] = [
            (
                {"worker_index": i, **s}
                if s is not None
                else {"worker_index": i, "up": False}
            )
            for i, s in enumerate(per_worker)
        ]
        return out

    def _cluster_status(
        self, per_worker: Sequence[Optional[Dict[str, Any]]]
    ) -> str:
        if self._draining:
            return "draining"
        worst = "ok"
        for s in per_worker:
            status = "degraded" if s is None else str(
                s.get("status", "ok")
            )
            if _STATUS_RANK.get(status, 1) > _STATUS_RANK.get(worst, 0):
                worst = status
        return worst

    async def _cluster_stats_response(
        self, rid: protocol.RequestId
    ) -> Dict[str, Any]:
        return protocol.ok_response(rid, await self.cluster_stats())

    async def _cluster_health(
        self, rid: protocol.RequestId
    ) -> Dict[str, Any]:
        return protocol.ok_response(rid, await self.cluster_health())

    async def cluster_health(self) -> Dict[str, Any]:
        per_worker = await self._fan_out("health")
        return {
            "status": self._cluster_status(per_worker),
            "schema": protocol.PROTOCOL_SCHEMA,
            "workers": len(self.links),
            "workers_up": sum(1 for s in per_worker if s is not None),
            "established": sum(
                int(s.get("established", 0))
                for s in per_worker
                if s is not None
            ),
            "queue_depth": sum(
                int(s.get("queue_depth", 0))
                for s in per_worker
                if s is not None
            ),
            "shedding": any(
                bool(s.get("shedding"))
                for s in per_worker
                if s is not None
            ),
            "draining": self._draining,
            "uptime_seconds": max(0.0, time.time() - self._started_at),
            "startup_seconds": startup_seconds(self._started_at),
            "per_worker": [
                (
                    {"worker_index": i, **s}
                    if s is not None
                    else {"worker_index": i, "status": "down"}
                )
                for i, s in enumerate(per_worker)
            ],
        }

    async def _cluster_snapshot(
        self, rid: protocol.RequestId
    ) -> Dict[str, Any]:
        assert self.on_snapshot is not None
        try:
            result = await self.on_snapshot()
        except ServiceError as exc:
            return protocol.error_response(
                rid, protocol.INTERNAL, str(exc)
            )
        return protocol.ok_response(rid, result)

    # -------------------------------------------------------------- #
    # telemetry endpoint hooks (MetricsEndpoint-compatible, async)
    # -------------------------------------------------------------- #

    async def healthz(self) -> Tuple[int, Dict[str, Any]]:
        obj = await self.cluster_health()
        status = (
            503 if obj["status"] in ("draining", "overloaded") else 200
        )
        return status, obj

    async def stats(self) -> Dict[str, Any]:
        return await self.cluster_stats()

    async def scrape_text(self) -> str:
        """Prometheus exposition of the per-worker aggregation."""
        stats = await self.cluster_stats()
        lines = [
            "# TYPE repro_cluster_workers gauge",
            f"repro_cluster_workers {stats['workers']}",
            "# TYPE repro_cluster_workers_up gauge",
            f"repro_cluster_workers_up {stats['workers_up']}",
        ]
        for key in (
            "requests",
            "admitted",
            "rejected",
            "released",
            "shed",
            "established",
            "queue_depth",
        ):
            lines.append(f"# TYPE repro_cluster_{key} gauge")
            lines.append(f"repro_cluster_{key} {stats[key]}")
            for entry in stats["per_worker"]:
                value = entry.get(key)
                if value is None:
                    continue
                lines.append(
                    f'repro_cluster_worker_{key}'
                    f'{{worker="{entry["worker_index"]}"}} {value}'
                )
        lines.append("# TYPE repro_cluster_worker_up gauge")
        for entry, link in zip(stats["per_worker"], self.links):
            lines.append(
                f'repro_cluster_worker_up'
                f'{{worker="{entry["worker_index"]}"}} '
                f"{1 if link.up else 0}"
            )
        restarts = stats.get("worker_restarts")
        if restarts is not None:
            lines.append("# TYPE repro_cluster_worker_restarts gauge")
            lines.append(f"repro_cluster_worker_restarts {restarts}")
        text = "\n".join(lines) + "\n"
        if OBS.enabled:
            text += to_prometheus_text(OBS.registry)
        return text + process_text()
