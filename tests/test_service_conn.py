"""The connection layer on its own: ordering, isolation, release.

``repro.service.conn`` is driven here with a recording handler over a
real Unix socket — no admission controller, no coalescer — so the
behaviours every front door inherits from it are pinned where they
live: entry points fire synchronously in frame order, concurrent
responses never interleave, one slow reader delays nobody else, and a
connection that vanishes mid-frame leaves nothing in flight.
"""

import asyncio
import json

from repro.errors import ProtocolError
from repro.service import protocol
from repro.service.conn import ConnectionLayer
from repro.service.router import WorkerLink

from test_service_fuzz import HELLO_V2


class RecordingHandler:
    """Logs every entry-point call; ops steer the response work."""

    def __init__(self):
        self.counts = {"requests": 0, "errors": 0, "connections": 0}
        self.log = []
        self.conns = []
        self.gate = asyncio.Event()

    def frame_context(self):
        return len(self.log)

    def begin_request(self, conn, request, ctx):
        self.log.append(("request", request.id, ctx))
        self.conns.append(conn)
        if request.op == "boom":
            raise RuntimeError("handler bug")
        return self._respond(conn, request)

    def begin_bulk(self, conn, rid, subops, ctx):
        self.log.append(("bulk", rid, ctx))
        if subops == ["refuse"]:
            raise ProtocolError(protocol.BAD_REQUEST, "refused bulk")
        return conn.send_raw(
            protocol.encode_bulk_response(rid, [[2]] * len(subops))
        )

    async def _respond(self, conn, request):
        if request.op == "wait":
            await self.gate.wait()
        self.log.append(("respond", request.id))
        pad = "x" * int(request.body.get("pad", 0))
        await conn.send(protocol.ok_response(request.id, {"pad": pad}))


async def start_layer(tmp_path, max_frame_bytes=protocol.MAX_FRAME_BYTES):
    handler = RecordingHandler()
    layer = ConnectionLayer(handler, max_frame_bytes, negotiate_v2=True)
    sock = str(tmp_path / "conn.sock")
    server = await asyncio.start_unix_server(
        layer.serve, path=sock, limit=max_frame_bytes
    )
    return handler, layer, server, sock


async def stop_layer(layer, server):
    server.close()
    await server.wait_closed()
    await layer.settle()
    layer.close()


async def read_v2(reader):
    header = await reader.readexactly(protocol.FRAME_HEADER_BYTES)
    payload = await reader.readexactly(int.from_bytes(header, "big"))
    return protocol.decode_payload_v2(payload)


def line(rid, op="echo", **body):
    return protocol.encode_frame({"id": rid, "op": op, **body})


def test_entry_points_fire_in_frame_order_across_the_upgrade(tmp_path):
    async def scenario():
        handler, layer, server, sock = await start_layer(tmp_path)
        # One v1 connection, pipelined in a single write; the hello in
        # the middle is late, so it is refused and the line stays v1.
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(line(1) + line(2) + HELLO_V2 + line(3))
        await writer.drain()
        answers = [json.loads(await reader.readline()) for _ in range(4)]
        assert sorted(str(a["id"]) for a in answers) == ["0", "1", "2", "3"]
        late = next(a for a in answers if a["id"] == protocol.HELLO_ID)
        assert late["error"]["code"] == protocol.BAD_REQUEST
        writer.close()
        # One upgraded connection: hello, then carrier / bulk / carrier
        # frames, again in one write — the v1 loop must hand the rest of
        # the buffer to the v2 loop without losing or reordering a byte.
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(
            HELLO_V2
            + protocol.encode_frame_v2({"id": 4, "op": "echo"})
            + protocol.encode_bulk_request(5, [[1, "f"], [1, "g"]])
            + protocol.encode_frame_v2({"id": 6, "op": "echo"})
        )
        await writer.drain()
        assert json.loads(await reader.readline())["ok"]
        got = [await read_v2(reader) for _ in range(3)]
        assert sorted(obj["id"] if tag == protocol.TAG_JSON else obj[0]
                      for tag, obj in got) == [4, 5, 6]
        writer.close()
        await stop_layer(layer, server)
        begun = [e for e in handler.log if e[0] != "respond"]
        assert [(kind, rid) for kind, rid, _ in begun] == [
            ("request", 1),
            ("request", 2),
            ("request", 3),
            ("request", 4),
            ("bulk", 5),
            ("request", 6),
        ]
        # Synchronous: each pipelined burst was begun in full before the
        # first of its responses ran (the context is the log length when
        # the frame was delimited, so it also proves frame_context fired
        # once per frame, immediately before its entry point).
        assert [ctx for _, _, ctx in begun[:3]] == [0, 1, 2]
        assert handler.log.index(("respond", 1)) > 2
        assert handler.counts["requests"] == 8  # two hellos included
        assert handler.counts["errors"] == 1
        assert handler.counts["connections"] == 2

    asyncio.run(scenario())


def test_concurrent_responses_never_interleave(tmp_path):
    async def scenario():
        handler, layer, server, sock = await start_layer(tmp_path)
        reader, writer = await asyncio.open_unix_connection(
            sock, limit=1 << 22
        )
        # 24 gated requests whose 300 KB answers (far past the socket
        # buffer, so every drain really waits) all become writable at
        # the same instant.
        n, pad = 24, 300_000
        writer.write(b"".join(line(i, "wait", pad=pad) for i in range(n)))
        await writer.drain()
        while len(handler.log) < n:
            await asyncio.sleep(0.01)
        handler.gate.set()
        seen = set()
        for _ in range(n):
            answer = json.loads(await asyncio.wait_for(reader.readline(), 10))
            assert answer["result"]["pad"] == "x" * pad
            seen.add(answer["id"])
        assert seen == set(range(n))
        writer.close()
        await stop_layer(layer, server)

    asyncio.run(scenario())


def test_slow_reader_does_not_delay_another_connection(tmp_path):
    async def scenario():
        handler, layer, server, sock = await start_layer(tmp_path)
        # The slow peer asks for ~12 MB of answers and reads none: its
        # response tasks queue up behind its own write lock.
        _slow_reader, slow_writer = await asyncio.open_unix_connection(sock)
        slow_writer.write(
            b"".join(line(i, pad=500_000) for i in range(24))
        )
        await slow_writer.drain()
        await asyncio.sleep(0.05)
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(line("quick"))
        await writer.drain()
        answer = json.loads(await asyncio.wait_for(reader.readline(), 1))
        assert answer["id"] == "quick" and answer["ok"]
        writer.close()
        slow_writer.close()
        await stop_layer(layer, server)

    asyncio.run(scenario())


def test_disconnect_mid_frame_releases_everything_in_flight(tmp_path):
    async def one(sock, handler, tail):
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(
            HELLO_V2
            + protocol.encode_frame_v2({"id": 1, "op": "wait"})
            + protocol.encode_frame_v2({"id": 2, "op": "wait"})
            + tail
        )
        await writer.drain()
        await reader.readline()
        while len(handler.conns) < 2:
            await asyncio.sleep(0.01)
        conn = handler.conns[-1]
        assert conn.inflight == {1, 2}
        writer.close()
        return conn

    async def scenario():
        handler, layer, server, sock = await start_layer(tmp_path)
        # Half a length prefix, then half a payload.
        for tail in (b"\x00\x00", (100).to_bytes(4, "big") + b"J[1,2"):
            handler.conns.clear()
            conn = await one(sock, handler, tail)
            while layer.connections:  # the read loop saw the EOF
                await asyncio.sleep(0.01)
            assert conn.inflight == {1, 2}  # decisions still pending
            handler.gate.set()
            await layer.settle()
            assert conn.inflight == set()
            handler.gate.clear()
        assert handler.counts["errors"] == 0
        await stop_layer(layer, server)

    asyncio.run(scenario())


def test_one_bad_request_never_tears_down_the_read_loop(tmp_path):
    async def scenario():
        handler, layer, server, sock = await start_layer(tmp_path)
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(HELLO_V2)
        await writer.drain()
        await reader.readline()
        writer.write(
            protocol.encode_frame_v2({"id": 1, "op": "boom"})
            + protocol.encode_bulk_request(2, ["refuse"])
            + protocol.encode_frame_v2({"id": 3, "op": "echo"})
        )
        await writer.drain()
        got = {}
        for _ in range(3):
            tag, obj = await read_v2(reader)
            assert tag == protocol.TAG_JSON
            got[obj["id"]] = obj
        assert got[1]["error"] == {
            "code": protocol.INTERNAL,
            "message": "RuntimeError: handler bug",
        }
        assert got[2]["error"] == {
            "code": protocol.BAD_REQUEST,
            "message": "refused bulk",
        }
        assert got[3]["ok"]
        # The refused ids were never left in flight.
        assert handler.conns[-1].inflight == set()
        writer.close()
        await stop_layer(layer, server)

    asyncio.run(scenario())


def test_worker_link_treats_an_undecodable_frame_as_a_lost_link(tmp_path):
    """The dialling side of the same rule: a worker frame that cannot
    be decoded ends that connection — the caller gets ``unavailable``
    (it used to wait forever on a silently dropped frame) and the link
    reconnects."""
    sock = str(tmp_path / "worker.sock")

    async def garbage_worker(reader, writer):
        await reader.readline()
        writer.write(b"this is not a frame\n")
        await writer.drain()
        writer.close()

    async def scenario():
        stub = await asyncio.start_unix_server(garbage_worker, sock)
        link = WorkerLink(
            0, sock, link_protocol="v1", reconnect_delay=0.01
        )
        link.start()
        frame = await asyncio.wait_for(link.call("stats", {}), 1)
        assert frame["error"]["code"] == protocol.UNAVAILABLE
        assert link.failed_calls == 1
        while link.connects < 2:
            await asyncio.sleep(0.01)
        await link.stop()
        stub.close()
        await stub.wait_closed()

    asyncio.run(scenario())


def test_worker_link_stop_answers_calls_it_never_wrote(tmp_path):
    """A call queued to a link whose worker never comes back was never
    written, so no lost connection ever fails it: ``stop()`` must, or
    the caller — and the front door's drain behind it — waits forever."""

    async def scenario():
        link = WorkerLink(
            0, str(tmp_path / "never.sock"), reconnect_delay=0.01
        )
        link.start()
        queued = link.call("stats", {})
        await asyncio.sleep(0.05)  # a few failed dials
        assert not link.up and not queued.done() and link.pending == 1
        await link.stop()
        frame = await asyncio.wait_for(queued, 1)
        assert frame["error"]["code"] == protocol.UNAVAILABLE
        assert (link.failed_calls, link.pending) == (1, 0)

    asyncio.run(scenario())


def test_router_drain_answers_requests_queued_to_a_down_shard(tmp_path):
    """The front door settles every in-flight request before it closes
    the links — so a request queued to a link that is down must be
    answered first, or the drain (and SIGTERM) waits on a worker that
    may never come back."""
    from repro.service.router import ClusterRouter

    front = str(tmp_path / "front.sock")

    async def scenario():
        router = ClusterRouter([str(tmp_path / "never.sock")])
        await router.start_unix(front)
        reader, writer = await asyncio.open_unix_connection(front)
        writer.write(line(7, op="stats"))
        await writer.drain()
        while router.links[0].pending == 0:
            await asyncio.sleep(0.01)
        await asyncio.wait_for(router.stop(), 2)
        frame = json.loads(await asyncio.wait_for(reader.readline(), 1))
        assert frame["id"] == 7 and frame["result"]["workers_up"] == 0
        writer.close()

    asyncio.run(scenario())
