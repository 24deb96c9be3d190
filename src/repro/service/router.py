"""Front-door router of the multi-worker admission cluster.

One asyncio process accepts client connections on the cluster's public
socket and dispatches every admission op to the worker that owns the
flow, keeping both wire protocols byte-for-byte unchanged for clients.
Every router→worker hop speaks v2 (a worker is always this repository's
``serve``):

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
* **frame splitting, packed** — a v2 ``B`` frame is split per owner
  as it is (routed on each sub-op's id, never decoded), a v1 ``batch``
  is packed once and split the same way, and the owners' ``R`` slots
  are merged back by position; a sub-op whose id cannot be routed goes
  to worker 0, whose validation answer is bit-identical to any other
  worker's (malformed ops never touch state);
* **aggregation** — ``stats``/``health`` fan out to every worker and
  come back as one cluster view (summed counters, worst status,
  ``per_worker`` breakdown incl. pids), which also feeds the
  ``/metrics`` endpoint.

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
from ..obs.process import process_text
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

#: Ring salt: a constant, never derived from process state, so every
#: participant builds the identical ring.
DEFAULT_RING_SALT = "repro-cluster"
DEFAULT_VIRTUAL_NODES = 64

#: Ops a worker link holds in flight before it answers ``overloaded``.
LINK_MAX_PENDING = 16384
#: Seconds a worker link waits between reconnect attempts.
RECONNECT_DELAY = 0.1


def _hash64(key: str) -> int:
    """Stable 64-bit hash (blake2b) — identical across processes."""
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(),
        "big",
    )


class HashRing:
    """Consistent hashing of flow ids onto worker indices.

    A pure function of ``workers``: rebuilding the ring after any
    restart yields the same assignment, and growing the cluster from
    ``n`` to ``n+1`` workers remaps only ``~1/(n+1)`` of the id space
    (the consistent-hashing property the tests bound).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
        self.workers = int(workers)
        points: List[Tuple[int, int]] = []
        for w in range(workers):
            for v in range(DEFAULT_VIRTUAL_NODES):
                points.append((_hash64(f"{DEFAULT_RING_SALT}/{w}/{v}"), w))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [w for _, w in points]

    def worker_of(self, flow_id: Hashable) -> int:
        """Index of the worker owning a flow id."""
        return self.workers_of((flow_id,))[0]

    def workers_of(self, flow_ids: Iterable[Any]) -> List[int]:
        """Index of the worker owning each flow id, in order (a frame's
        owners in one call).

        Only a wire flow id — a string or an integer — is hashed;
        anything else goes to worker 0: no worker accepts it, and each
        refuses it with the single server's bytes.
        """
        hashes, owners = self._hashes, self._owners
        found = []
        for fid in flow_ids:
            # Type-tagged so the str "1" and the int 1 hash independently.
            if isinstance(fid, str):
                tag = "s"
            elif isinstance(fid, int) and not isinstance(fid, bool):
                tag = "i"
            else:
                found.append(0)
                continue
            h = _hash64(f"{DEFAULT_RING_SALT}#{tag}:{fid}")
            found.append(owners[bisect.bisect_right(hashes, h) % len(hashes)])
        return found


class WorkerLink:
    """One persistent router→worker connection, always v2-framed.

    Requests enter through :meth:`call` / :meth:`call_bulk` — a
    **synchronous** enqueue onto an ordered outbox, so the caller
    controls ordering — encoded once with a router-local request id and
    written by a single writer task; a reader task matches responses
    back to futures.  A worker is always this repository's ``serve``,
    so a peer that will not speak v2 is treated like a failed dial:
    close, back off, retry.  When the worker dies, every
    sent-but-unanswered request resolves to an ``unavailable`` error
    frame and the link reconnects with backoff until the supervisor
    has the worker back; ops still queued in the outbox (never written)
    survive the reconnect, and :meth:`stop` answers them ``unavailable``
    too, so no caller waits forever and no op is silently dropped.
    """

    def __init__(self, index: int, socket_path: str):
        self.index = int(index)
        self.socket_path = str(socket_path)
        self.max_pending = LINK_MAX_PENDING
        self.max_frame_bytes = protocol.MAX_FRAME_BYTES
        self.connects = 0
        self.failed_calls = 0
        self._outbox: "asyncio.Queue[Tuple[int, bytes, asyncio.Future]]" = (
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

    def call(self, op: str, body: Dict[str, Any]) -> "asyncio.Future":
        """Enqueue one op in a JSON carrier frame; the future resolves
        to the worker's raw response frame (or an ``unavailable`` error
        frame on link death).  Synchronous, so enqueue order == caller
        order.
        """
        return self._enqueue(
            lambda rid: protocol.encode_frame_v2({"id": rid, "op": op, **body})
        )

    def call_bulk(self, subops: list) -> "asyncio.Future":
        """Enqueue packed sub-ops as one ``B`` frame, as they are; the
        future resolves to ``{"id", "ok": True, "_packed": slots}`` (or
        the worker's error frame)."""
        return self._enqueue(
            lambda rid: protocol.encode_bulk_request(rid, subops)
        )

    def _enqueue(self, encode: Callable[[int], bytes]) -> "asyncio.Future":
        """Queue one frame: ``encode`` of a fresh router-local id."""
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
        future = asyncio.get_running_loop().create_future()
        self._outbox.put_nowait((rid, encode(rid), future))
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
                    await asyncio.sleep(RECONNECT_DELAY)
                    continue
                try:
                    # Before the write loop starts, so the hello never
                    # interleaves with forwarded requests.
                    proto = await propose_v2(
                        reader, writer, self.max_frame_bytes
                    )
                    if proto != 2:
                        raise ProtocolError(
                            protocol.BAD_REQUEST,
                            f"worker {self.index} refused v2 framing",
                        )
                except (ConnectionError, OSError, ProtocolError):
                    close_writer(writer)
                    await asyncio.sleep(RECONNECT_DELAY)
                    continue
                self.connects += 1
                self._up = True
                write_task = asyncio.get_running_loop().create_task(
                    self._write_loop(writer)
                )
                why = "connection closed"
                try:
                    await read_responses(
                        reader, 2, self.max_frame_bytes, self._settle
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
                await asyncio.sleep(RECONNECT_DELAY)
        except asyncio.CancelledError:
            pass

    async def _write_loop(self, writer: asyncio.StreamWriter) -> None:
        while True:
            rid, frame, future = await self._outbox.get()
            if future.done():  # caller vanished; skip the write
                continue
            self._pending[rid] = future
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                # The read loop observes the same death and fails every
                # pending future (including this one).
                return

    def _settle(self, frame: Dict[str, Any]) -> None:
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
    "connections",
    "snapshots",
    "restored",
    "batches",
    "coalesced_ops",
    "established",
    "flow_rows",
    "flow_table_bytes",
    "queue_depth",
    "decisions_total",
    "admitted_total",
    "rejected_total",
    "released_total",
)

_STATUS_RANK = {"ok": 0, "degraded": 1, "draining": 2}

#: A frame split per owning worker: its sub-op count, and per worker
#: ``(worker, slots, answer)`` — the positions it answers, in order,
#: and its pending answer (or the error frame its link refused with).
_Split = Tuple[int, List[Tuple[int, List[int], Any]]]


def _packed_flow_ids(subops: list) -> list:
    """The flow id each packed sub-op names (``sub[1]``), or None."""
    return [
        sub[1] if isinstance(sub, list) and len(sub) > 1 else None
        for sub in subops
    ]


def _v1_flow_id(sub: Any, op: Optional[str] = None) -> Any:
    """The flow id a v1 sub-op names — or a lone op's body, with
    ``op`` its name — or None."""
    if not isinstance(sub, dict):
        return None
    if op is None:
        op = sub.get("op")
    if op == "admit":
        flow = sub.get("flow")
        return flow.get("id") if isinstance(flow, dict) else None
    return sub.get("flow_id") if op == "release" else None


def _slots_of(w: int, frame: Dict[str, Any], n: int) -> list:
    """Worker ``w``'s answer to ``n`` sub-ops as packed slots: its ``R``
    slots, its carrier ``batch`` results packed, or its refusal of the
    whole frame in every slot."""
    slots = frame.get("_packed")
    if slots is None and frame.get("ok"):
        results = frame.get("result", {}).get("results", [])
        slots = protocol.pack_bulk_results(results)
    if slots is None:
        err = frame.get("error", {})
        code = err.get("code", protocol.INTERNAL)
        return [[protocol.SLOT_ERROR, code, err.get("message", "")]] * n
    if len(slots) != n:
        message = f"worker {w} returned {len(slots)} results for {n} ops"
        return [[protocol.SLOT_ERROR, protocol.INTERNAL, message]] * n
    return slots


class ClusterRouter:
    """Route one front-door socket onto N admission workers."""

    def __init__(
        self,
        worker_sockets: Sequence[str],
        *,
        on_snapshot: Optional[
            Callable[[], Awaitable[Dict[str, Any]]]
        ] = None,
        extra_stats: Optional[Callable[[], Dict[str, Any]]] = None,
    ):
        if not worker_sockets:
            raise ServiceError("cluster needs at least one worker")
        self.ring = HashRing(len(worker_sockets))
        self.max_frame_bytes = protocol.MAX_FRAME_BYTES
        #: Async callback (the supervisor's merge) behind the
        #: ``snapshot`` op; None answers ``unavailable``.
        self.on_snapshot = on_snapshot
        #: Extra synchronous key/values merged into cluster stats
        #: (the supervisor contributes restart counts).
        self.extra_stats = extra_stats
        self.links = [
            WorkerLink(i, path) for i, path in enumerate(worker_sockets)
        ]
        self.counts: Dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "connections": 0,
            "forwarded": 0,
        }
        #: Clients are served by the same layer as a single server's, so
        #: they cannot tell a front door from a worker by construction.
        self._layer = ConnectionLayer(self, self.max_frame_bytes)

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    async def start_unix(self, path: str) -> None:
        """Connect every worker link and open the front door."""
        for link in self.links:
            link.start()
        await self._layer.listen(path=path)
        logger.info(
            "cluster front door on %s routing to %d workers",
            path,
            len(self.links),
        )

    async def stop(self) -> None:
        """Stop accepting, answer in-flight requests, close links."""
        self._layer.begin_drain()
        # A down link never writes its queue: answer those requests
        # now, or quiesce() waits on them for as long as the shard is
        # gone.
        for link in self.links:
            if not link.up:
                await link.stop()
        await self._layer.quiesce()
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
        """Split one packed bulk frame per owning worker, sub-ops as
        they are.

        The front door decodes none of them: each owner gets its share
        in one ``B`` frame and validates it with the single server's own
        decoder, so a malformed entry earns the same bytes (and the
        same ``errors`` count) either way.
        """
        return self._send_bulk(
            conn,
            rid,
            self._split(
                subops, _packed_flow_ids(subops), WorkerLink.call_bulk
            ),
        )

    async def _send_bulk(
        self, conn: Connection, rid: protocol.RequestId, split: _Split
    ) -> None:
        slots = await self._merge(split)
        await conn.send_raw(protocol.encode_bulk_response(rid, slots))

    # -------------------------------------------------------------- #
    # dispatch
    # -------------------------------------------------------------- #

    def _owner(self, flow_id: Any) -> WorkerLink:
        fid = protocol.validate_flow_id(flow_id)
        return self.links[self.ring.worker_of(fid)]

    def _begin(self, request: protocol.Request) -> Any:
        """Synchronous routing of one request.

        Returns a ready response dict, a single link future, a split
        ``batch`` (see :meth:`_split`), or a coroutine for the fan-out
        ops.
        """
        op = request.op
        body = request.body
        rid = request.id
        if op == "health":
            return self._answer(rid, self.health())
        if op == "stats":
            return self._answer(rid, self.stats())
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
                f"{', '.join(protocol.OPS)})",
            )
        if op == "admit":
            # An id no worker accepts goes to worker 0 (HashRing.
            # workers_of): a refused op never touches admission state.
            link = self.links[self.ring.worker_of(_v1_flow_id(body, "admit"))]
            return self._forward(link, op, body)
        if op in ("release", "query"):
            if "flow_id" not in body:
                raise ProtocolError(
                    protocol.BAD_REQUEST, f"{op} needs flow_id"
                )
            return self._forward(
                self._owner(body["flow_id"]), op, body
            )
        ops = body.get("ops")
        if not isinstance(ops, list):
            raise ProtocolError(
                protocol.BAD_REQUEST, "batch needs an ops list"
            )
        extra = {k: v for k, v in body.items() if k != "ops"}
        # Packed once, as a v2 client would send it; a batch that cannot
        # be packed (or carries a trace) goes as a carrier ``batch``.
        packed = None if extra else protocol.pack_batch_ops(ops)
        if packed is not None:
            return self._split(
                packed, _packed_flow_ids(packed), WorkerLink.call_bulk
            )
        return self._split(
            ops,
            [_v1_flow_id(sub) for sub in ops],
            lambda link, subs: link.call("batch", {"ops": subs, **extra}),
        )

    def _split(
        self,
        subops: list,
        flow_ids: list,
        call: Callable[[WorkerLink, list], Any],
    ) -> _Split:
        """Forward a frame's sub-ops, as they are, in one ``call`` per
        owning worker; ``flow_ids[i]`` is the id sub-op ``i`` names (or
        None)."""
        per_worker: Dict[int, Tuple[List[int], list]] = {}
        owners = self.ring.workers_of(flow_ids)
        for slot, (sub, w) in enumerate(zip(subops, owners)):
            part = per_worker.get(w)
            if part is None:
                part = per_worker[w] = ([], [])
            part[0].append(slot)
            part[1].append(sub)
        parts = []
        for w, (slots, subs) in per_worker.items():
            try:
                answer = call(self.links[w], subs)
            except ProtocolError as exc:
                answer = protocol.error_response(None, exc.code, str(exc))
            parts.append((w, slots, answer))
        self.counts["forwarded"] += len(parts)
        return len(subops), parts

    async def _merge(self, split: _Split) -> list:
        """The frame's packed slots: each worker's, back in position."""
        n, parts = split
        merged: list = [None] * n
        failed = False
        for w, slots, answer in parts:
            if asyncio.isfuture(answer):
                answer = await answer
            for slot, packed in zip(slots, _slots_of(w, answer, len(slots))):
                merged[slot] = packed
                if packed[0] == protocol.SLOT_ERROR:
                    failed = True
        if failed:
            self.counts["errors"] += 1
        return merged

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
        elif isinstance(pending, tuple):  # a split v1 batch
            results = protocol.unpack_bulk_results(await self._merge(pending))
            response = protocol.ok_response(request.id, {"results": results})
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

    @staticmethod
    async def _answer(
        rid: protocol.RequestId, result: Awaitable[Dict[str, Any]]
    ) -> Dict[str, Any]:
        return protocol.ok_response(rid, await result)

    async def stats(self) -> Dict[str, Any]:
        """Aggregated cluster stats with a ``per_worker`` breakdown."""
        per_worker = await self._fan_out("stats")
        out: Dict[str, Any] = {
            "schema": protocol.PROTOCOL_SCHEMA,
            "controller": "cluster",
            "workers": len(self.links),
            "workers_up": sum(1 for s in per_worker if s is not None),
            **self._layer.header(self._cluster_status(per_worker)),
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
        out["largest_batch"] = max(
            (int(s.get("largest_batch", 0)) for s in per_worker if s),
            default=0,
        )
        out["mean_batch_fill"] = (
            out["coalesced_ops"] / out["batches"]
            if out["batches"]
            else 0.0
        )
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

    @staticmethod
    def _cluster_status(per_worker: Sequence[Optional[Dict[str, Any]]]) -> str:
        """The worst worker's status; an unreachable one is degraded."""
        worst = "ok"
        for s in per_worker:
            status = "degraded" if s is None else str(
                s.get("status", "ok")
            )
            if _STATUS_RANK.get(status, 1) > _STATUS_RANK.get(worst, 0):
                worst = status
        return worst

    async def health(self) -> Dict[str, Any]:
        per_worker = await self._fan_out("health")
        return {
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
            **self._layer.header(self._cluster_status(per_worker)),
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
        except Exception as exc:
            # A failed merge (ENOSPC on the manifest, an unreadable
            # shard) is answered, as at a single server: never a
            # response task that dies with the client left waiting.
            return protocol.error_response(
                rid, protocol.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        return protocol.ok_response(rid, result)

    # -------------------------------------------------------------- #
    # telemetry endpoint hook (health and stats are the ops' own)
    # -------------------------------------------------------------- #

    async def scrape_text(self) -> str:
        """Prometheus exposition of the per-worker aggregation."""
        stats = await self.stats()
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
