"""In-process tests for the asyncio admission server.

Covers the protocol-hardening surface (malformed JSON, unknown op,
duplicate request id, oversized frame, mid-request disconnect — each
must produce a structured error or a clean close without wedging the
coalescer), backpressure through the socket, graceful drain, and
snapshot/restore over the wire.
"""

import asyncio
import dataclasses
import errno
import gc
import inspect
import json
import logging
import os
import threading

import pytest

from repro import obs
from repro.admission import (
    FlowAwareAdmissionController,
    UtilizationAdmissionController,
)
from repro.control import Preemptor
from repro.errors import AdmissionError, ReproError, ServiceError
from repro.routing.shortest import shortest_path_routes
from repro.service import (
    AdmissionService,
    AsyncServiceClient,
    ClusterRouter,
    ServiceConfig,
    SnapshotStore,
    protocol,
    service_snapshot,
)
from repro.service.audit import iter_audit, verify_audit
from repro.service.coalescer import MicroBatchCoalescer
from repro.service.conn import ConnectionLayer, propose_v2, read_responses
from repro.topology import LinkServerGraph, line_network, ring_network
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import PRIORITIES, FlowSpec
from repro.traffic.generators import all_ordered_pairs


def make_controller(alpha=0.3):
    network = line_network(4)
    graph = LinkServerGraph(network)
    voice = voice_class()
    registry = ClassRegistry.two_class(voice)
    pairs = all_ordered_pairs(network)
    routes = shortest_path_routes(network, pairs)
    return UtilizationAdmissionController(
        graph, registry, {voice.name: alpha}, routes
    )


def make_ring_controller():
    """Two ways round between opposite routers: a committed route is
    not what a fresh process would resolve after a route change."""
    network = ring_network(4)
    voice = voice_class()
    return UtilizationAdmissionController(
        LinkServerGraph(network),
        ClassRegistry.two_class(voice),
        {voice.name: 0.3},
        shortest_path_routes(network, all_ordered_pairs(network)),
    )


def flow_obj(i, src="r0", dst="r3"):
    return {"id": f"f{i}", "cls": "voice", "src": src, "dst": dst}


async def start_service(tmp_path, name="s.sock", **config_kwargs):
    service = AdmissionService(
        make_controller(config_kwargs.pop("alpha", 0.3)),
        ServiceConfig(**config_kwargs),
    )
    sock = str(tmp_path / name)
    await service.start_unix(sock)
    return service, sock


class RoutedService:
    """A ClusterRouter over one in-process worker, with the slice of
    AdmissionService's surface the hostile-input suites touch."""

    def __init__(self, worker, router):
        self.worker = worker
        self.router = router
        self.coalescer = worker.coalescer
        self.controller = worker.controller

    async def drain(self):
        await self.router.stop()
        await self.worker.drain()

    stop = drain


async def start_router(tmp_path, name="s.sock", **config_kwargs):
    worker, worker_sock = await start_service(
        tmp_path, "worker-" + name, **config_kwargs
    )
    router = ClusterRouter([worker_sock])
    sock = str(tmp_path / name)
    await router.start_unix(sock)
    return RoutedService(worker, router), sock


class FrontDoorCases:
    """Base of the hostile-input suites: every case runs against a bare
    AdmissionService and, in a ``door = "router"`` subclass, against a
    ClusterRouter over one worker.  Both are served by
    ``repro.service.conn``, so the same bytes must earn the same answer
    — and whatever was thrown at the door, the ledger behind it must
    still pass ``verify_invariants()``."""

    door = "server"

    @pytest.fixture(autouse=True)
    def _ledger_stays_sound(self):
        self._started = []
        yield
        for service in self._started:
            controller = service.controller
            assert controller.verify_invariants() == []
            assert len(controller._flows) == controller.num_established

    async def start(self, tmp_path, **config_kwargs):
        starter = start_router if self.door == "router" else start_service
        service, sock = await starter(tmp_path, **config_kwargs)
        self._started.append(service)
        return service, sock


async def raw_connection(sock):
    return await asyncio.open_unix_connection(sock)


async def start_pre_v2_peer(sock):
    """A peer built before ``hello`` existed: it answers the proposal
    ``unknown_op``, like any op it does not know, and serves v1 lines
    (admits admitted, releases released, each op of a batch likewise,
    the rest ok).  Returns the listener and the requests it saw."""
    seen = []

    def answer(op):
        if op == "admit":
            return {"admitted": True, "reason": "", "batch_size": 1}
        if op == "release":
            return {"released": True}
        return {"status": "ok"}

    async def serve(reader, writer):
        while line := await reader.readline():
            request = json.loads(line)
            seen.append(request)
            rid, op = request["id"], request["op"]
            if op == protocol.HELLO_OP:
                response = protocol.error_response(
                    rid, protocol.UNKNOWN_OP, f"unknown op {op!r}"
                )
            elif op == "batch":
                response = protocol.ok_response(rid, {"results": [
                    {"ok": True, "result": answer(sub["op"])}
                    for sub in request["ops"]
                ]})
            else:
                response = protocol.ok_response(rid, answer(op))
            writer.write(protocol.encode_frame(response))
            await writer.drain()
        writer.close()

    return await asyncio.start_unix_server(serve, sock), seen


async def rpc(reader, writer, obj_or_bytes):
    """Send one frame (object or raw bytes) and read one response."""
    if isinstance(obj_or_bytes, bytes):
        writer.write(obj_or_bytes)
    else:
        writer.write(protocol.encode_frame(obj_or_bytes))
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), 10)
    assert line.endswith(b"\n")
    return json.loads(line)


class TestProtocolHardening(FrontDoorCases):
    def test_malformed_json_yields_structured_error(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            resp = await rpc(reader, writer, b"{not json}\n")
            assert resp["ok"] is False
            assert resp["id"] is None
            assert resp["error"]["code"] == "bad_request"
            # The connection (and the coalescer behind it) still works.
            resp = await rpc(
                reader, writer, {"id": 1, "op": "admit", "flow": flow_obj(1)}
            )
            assert resp["ok"] is True and resp["result"]["admitted"]
            writer.close()
            await service.drain()

        asyncio.run(scenario())

    def test_unknown_op_echoes_the_request_id(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            resp = await rpc(reader, writer, {"id": "r9", "op": "explode"})
            assert resp == {
                "id": "r9",
                "ok": False,
                "error": resp["error"],
            }
            assert resp["error"]["code"] == "unknown_op"
            writer.close()
            await service.drain()

        asyncio.run(scenario())

    def test_duplicate_inflight_request_id_is_rejected(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            # Hold the first request in flight so the duplicate is
            # detectable deterministically.
            service.coalescer.pause()
            writer.write(
                protocol.encode_frame(
                    {"id": 5, "op": "admit", "flow": flow_obj(1)}
                )
            )
            resp = await rpc(
                reader, writer, {"id": 5, "op": "admit", "flow": flow_obj(2)}
            )
            assert resp["ok"] is False
            assert resp["error"]["code"] == "duplicate_id"
            assert resp["id"] == 5
            service.coalescer.resume()
            line = await asyncio.wait_for(reader.readline(), 10)
            first = json.loads(line)
            assert first["id"] == 5 and first["ok"] is True
            # After completion the id is free again.
            resp = await rpc(
                reader, writer, {"id": 5, "op": "admit", "flow": flow_obj(3)}
            )
            assert resp["ok"] is True
            writer.close()
            await service.drain()

        asyncio.run(scenario())

    def test_oversized_frame_errors_and_closes_cleanly(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 512)

        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            frame = (
                b'{"id":1,"op":"admit","pad":"' + b"x" * 2048 + b'"}\n'
            )
            resp = await rpc(reader, writer, frame)
            assert resp["ok"] is False
            assert resp["error"]["code"] == "frame_too_large"
            # Clean close: EOF, not a hang or a reset mid-frame.
            rest = await asyncio.wait_for(reader.read(), 10)
            assert rest == b""
            writer.close()
            # The server survives and takes new connections.
            reader2, writer2 = await raw_connection(sock)
            resp = await rpc(reader2, writer2, {"id": 1, "op": "health"})
            assert resp["ok"] is True
            writer2.close()
            await service.drain()

        asyncio.run(scenario())

    def test_mid_request_disconnect_does_not_wedge(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            # Half a frame, then vanish.
            _reader, writer = await raw_connection(sock)
            writer.write(b'{"id":1,"op":"adm')
            await writer.drain()
            writer.close()
            # A full frame whose response has nowhere to go: the
            # decision must still commit.
            _reader2, writer2 = await raw_connection(sock)
            writer2.write(
                protocol.encode_frame(
                    {"id": 1, "op": "admit", "flow": flow_obj(7)}
                )
            )
            await writer2.drain()
            writer2.close()
            for _ in range(200):
                if service.controller.num_decisions:
                    break
                await asyncio.sleep(0.005)
            # Fresh connection: the coalescer is alive and the
            # orphaned admit was committed.
            reader3, writer3 = await raw_connection(sock)
            resp = await rpc(
                reader3, writer3, {"id": 1, "op": "query", "flow_id": "f7"}
            )
            assert resp["ok"] is True
            assert resp["result"]["established"] is True
            writer3.close()
            await service.drain()

        asyncio.run(scenario())

    # Every refusal is a ``bad_request``; the ids keep the code.
    @pytest.mark.parametrize(
        "frame,message",
        [
            ({"id": 1, "op": "query"}, "query needs flow_id"),
            ({"id": 1, "op": "release"}, "release needs flow_id"),
            ({"id": 1, "op": "admit"}, "flow must be an object, got NoneType"),
            (
                {"id": 1, "op": "admit", "flow": "nope"},
                "flow must be an object, got str",
            ),
            ({"id": 1, "op": "batch"}, "batch needs an ops list"),
            ({"id": 1, "op": "batch", "ops": 7}, "batch needs an ops list"),
            # Unhashable / non-scalar flow ids must be rejected at the
            # wire, never reach the controller's ledger lookups.
            (
                {"id": 1, "op": "query", "flow_id": ["x"]},
                "flow_id must be a string or integer, got list",
            ),
            (
                {"id": 1, "op": "query", "flow_id": None},
                "flow_id must be a string or integer, got NoneType",
            ),
            (
                {"id": 1, "op": "release", "flow_id": ["x"]},
                "flow_id must be a string or integer, got list",
            ),
            (
                {"id": 1, "op": "release", "flow_id": True},
                "flow_id must be a string or integer, got bool",
            ),
            (
                {"id": 1, "op": "release", "flow_id": 1.5},
                "flow_id must be a string or integer, got float",
            ),
            (
                {
                    "id": 1,
                    "op": "admit",
                    "flow": {
                        "id": ["f"],
                        "cls": "voice",
                        "src": "r0",
                        "dst": "r3",
                    },
                },
                "flow id must be a string or integer, got list",
            ),
        ],
        ids=[f"frame{i}-bad_request" for i in range(12)],
    )
    def test_body_validation_errors_carry_the_id(
        self, tmp_path, frame, message
    ):
        """The whole refusal, code and message (recorded from the
        single server), under the request's id, at either door."""

        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            resp = await rpc(reader, writer, frame)
            assert resp == _refused(1, "bad_request", message)
            writer.close()
            await service.drain()

        asyncio.run(scenario())

    def test_unhashable_flow_id_does_not_wedge_the_coalescer(
        self, tmp_path
    ):
        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            # Historically this frame raised TypeError inside the
            # coalescer's drain loop, killing it permanently: every
            # queued and future request would hang.
            resp = await rpc(
                reader, writer, {"id": 1, "op": "release", "flow_id": ["x"]}
            )
            assert resp["ok"] is False
            assert resp["error"]["code"] == "bad_request"
            # Same poison via a batch sub-op keeps its slot as an
            # inline error while the well-formed sibling proceeds.
            resp = await rpc(
                reader,
                writer,
                {
                    "id": 2,
                    "op": "batch",
                    "ops": [
                        {"op": "release", "flow_id": {"k": 1}},
                        {"op": "admit", "flow": flow_obj(1)},
                    ],
                },
            )
            assert resp["ok"] is True
            results = resp["result"]["results"]
            assert not results[0]["ok"]
            assert results[0]["error"]["code"] == "bad_request"
            assert results[1]["ok"] and results[1]["result"]["admitted"]
            # The coalescer is alive and still deciding traffic.
            resp = await rpc(
                reader, writer, {"id": 3, "op": "query", "flow_id": "f1"}
            )
            assert resp["ok"] is True
            assert resp["result"]["established"] is True
            writer.close()
            await service.drain()

        asyncio.run(scenario())

    def test_batch_with_malformed_subops_keeps_slots(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            resp = await rpc(
                reader,
                writer,
                {
                    "id": 1,
                    "op": "batch",
                    "ops": [
                        {"op": "admit", "flow": flow_obj(1)},
                        "garbage",
                        {"op": "frobnicate"},
                        {"op": "release", "flow_id": "f1"},
                    ],
                },
            )
            assert resp["ok"] is True
            results = resp["result"]["results"]
            assert len(results) == 4
            assert results[0]["ok"] and results[0]["result"]["admitted"]
            assert not results[1]["ok"]
            assert not results[2]["ok"]
            assert results[3]["ok"] and results[3]["result"]["released"]
            writer.close()
            await service.drain()

        asyncio.run(scenario())


    def test_a_failed_snapshot_is_answered_and_counted(self, tmp_path):
        """A snapshot whose write fails (here ENOSPC) is answered
        ``internal`` with the exception's type and message and counted
        in ``errors`` — at a front door too, whose merge used to let an
        ``OSError`` end the response task with nothing written."""

        def full(*_args):
            raise OSError(errno.ENOSPC, "No space left on device")

        async def scenario():
            service, sock = await self.start(
                tmp_path, snapshot_path=str(tmp_path / "snap.json")
            )
            if self.door == "router":
                async def merge():
                    full()

                service.router.on_snapshot = merge
                counts = service.router.counts
            else:
                service.store.write = full
                counts = service.counts
            reader, writer = await raw_connection(sock)
            before = counts["errors"]
            resp = await rpc(reader, writer, {"id": 7, "op": "snapshot"})
            assert resp == _refused(
                7, "internal", "OSError: [Errno 28] No space left on device"
            )
            assert counts["errors"] == before + 1
            writer.close()
            if self.door == "server":
                del service.store.write  # the final cut writes again
            await service.drain()

        asyncio.run(scenario())

    @pytest.mark.parametrize("audited", [False, True])
    @pytest.mark.parametrize("wire", ["v1", "v2"])
    def test_hostile_route_fails_alone_in_its_frame(
        self, tmp_path, wire, audited
    ):
        """A v1 ``batch`` / v2 ``B`` frame holding one request the
        sequential API refuses: that op alone errors, its neighbours are
        decided, and nobody's later frame pays for it."""
        audit = str(tmp_path / "audit.jsonl") if audited else None
        good = flow_obj("good")
        be1 = dict(flow_obj("be1"), cls="best-effort")
        bad = dict(flow_obj("bad"), route=["r0", "Nowhere", "r3"])
        odd = dict(flow_obj("odd"), src=["r0"])  # not even hashable

        def admits(*flows):
            return [{"op": "admit", "flow": flow} for flow in flows]

        async def scenario():
            service, sock = await self.start(tmp_path, audit_path=audit)
            client = await AsyncServiceClient.connect_unix(
                sock, protocol=wire
            )
            assert client.negotiated_protocol == wire
            first = await client.batch(admits(good, be1, bad, odd))
            assert [r["ok"] for r in first] == [True, True, False, False]
            assert first[0]["result"]["admitted"]
            assert first[1]["result"]["admitted"]
            assert first[2]["error"]["code"] == "admission_error"
            assert "'r0' -> 'Nowhere'" in first[2]["error"]["message"]
            assert first[3]["error"]["code"] == "admission_error"
            assert "no configured route" in first[3]["error"]["message"]
            controller = service.controller
            assert controller.num_established == 2
            assert len(controller._flows) == 2
            assert controller.verify_invariants() == []
            again = await client.batch(admits(good, be1))
            assert [r["error"] for r in again] == [
                {
                    "code": "admission_error",
                    "message": f"flow {fid!r} is already established",
                }
                for fid in ("fgood", "fbe1")
            ]
            other = await AsyncServiceClient.connect_unix(
                sock, protocol=wire
            )
            third = await other.batch(admits(flow_obj(1), flow_obj(2)))
            assert all(r["ok"] and r["result"]["admitted"] for r in third)
            await other.close()
            await client.close()
            await service.drain()
            if audited:
                errors = [
                    record["flow"]["id"]
                    for record in iter_audit(audit)
                    if "error" in record
                ]
                assert errors == ["fbad", "fodd", "fgood", "fbe1"]

        asyncio.run(scenario())


async def rpc_v2(reader, writer, obj):
    """Send one v2 JSON carrier frame and read one response object."""
    writer.write(protocol.encode_frame_v2(obj))
    await writer.drain()
    header = await asyncio.wait_for(
        reader.readexactly(protocol.FRAME_HEADER_BYTES), 10
    )
    payload = await reader.readexactly(int.from_bytes(header, "big"))
    tag, resp = protocol.decode_payload_v2(payload)
    assert tag == protocol.TAG_JSON
    return resp


def _refused(rid, code, message):
    return {"id": rid, "ok": False, "error": {"code": code, "message": message}}


class TestLoneOpIsAFrameOfOne(FrontDoorCases):
    """A lone ``admit`` / ``release`` is a frame of one: an idle server
    decides it on arrival, however long its coalescing window, and
    answers exactly what it answered when the op waited out that
    window (the responses below were recorded from that server)."""

    CASES = [
        (
            {"id": 1, "op": "admit", "flow": flow_obj(1)},
            {
                "id": 1, "ok": True,
                "result": {"admitted": True, "reason": "", "batch_size": 1},
            },
        ),
        (
            {"id": 2, "op": "admit",
             "flow": {"id": "m", "cls": "voice", "src": "r0"}},
            _refused(2, "bad_request", "flow object is missing 'dst'"),
        ),
        (
            {"id": 3, "op": "admit", "flow": dict(flow_obj(3), id=["x"])},
            _refused(
                3, "bad_request",
                "flow id must be a string or integer, got list",
            ),
        ),
        (
            {"id": 4, "op": "admit", "flow": flow_obj(1)},
            _refused(
                4, "admission_error", "flow 'f1' is already established"
            ),
        ),
        (
            {"id": 5, "op": "admit", "flow": flow_obj(5, dst="r9")},
            _refused(
                5, "admission_error",
                "no configured route for pair ('r0', 'r9')",
            ),
        ),
        (
            {"id": 6, "op": "release", "flow_id": "f1"},
            {"id": 6, "ok": True, "result": {"released": True}},
        ),
        (
            {"id": 7, "op": "release", "flow_id": ["x"]},
            _refused(
                7, "bad_request",
                "flow_id must be a string or integer, got list",
            ),
        ),
        (
            {"id": 8, "op": "release"},
            _refused(8, "bad_request", "release needs flow_id"),
        ),
        (
            {"id": 9, "op": "release", "flow_id": "ghost"},
            _refused(
                9, "admission_error", "flow 'ghost' is not established"
            ),
        ),
    ]

    @pytest.mark.parametrize("wire", ["v1", "v2"])
    def test_idle_server_answers_without_the_window(self, tmp_path, wire):
        async def scenario():
            service, sock = await self.start(tmp_path, max_delay=1.0)
            reader, writer = await raw_connection(sock)
            call = rpc
            if wire == "v2":
                hello = await rpc(reader, writer, {
                    "id": protocol.HELLO_ID,
                    "op": protocol.HELLO_OP,
                    "protocol": protocol.PROTOCOL_SCHEMA_V2,
                })
                assert hello["ok"]
                call = rpc_v2
            loop = asyncio.get_running_loop()
            for request, expected in self.CASES:
                started = loop.time()
                resp = await call(reader, writer, request)
                assert loop.time() - started < 0.2, request
                assert resp == expected
            assert service.coalescer.pending == 0
            writer.close()
            await service.drain()

        asyncio.run(scenario())


class TestBackpressure:
    """A served connection's next frame is read once the one before it
    is decided, so excess load waits in the socket: no served op reaches
    the coalescer's queue, and nothing is refused for load."""

    def test_served_load_never_reaches_the_queue(self, tmp_path, monkeypatch):
        queued = []

        def never(coalescer, op, slots):
            queued.append(op.kind)
            raise AssertionError("a served op reached the coalescer's queue")

        monkeypatch.setattr(MicroBatchCoalescer, "_submit_slot", never)
        obs.enable(fresh=True)
        pairs = all_ordered_pairs(line_network(4))
        answered = []

        def flows(prefix, n):
            return [
                FlowSpec(
                    f"{prefix}{i}", "voice", *pairs[i % len(pairs)],
                    priority=PRIORITIES[i % len(PRIORITIES)],
                )
                for i in range(n)
            ]

        def admit_op(flow):
            return {"op": "admit", "flow": protocol.flow_to_obj(flow)}

        async def load(sock, c, wire):
            client = await AsyncServiceClient.connect_unix(sock, protocol=wire)
            assert client.negotiated_protocol == wire
            # Pipelined lone admits, then pipelined frames of admits.
            lone = flows(f"c{c}-lone-", 60)
            decisions = await asyncio.gather(
                *(client.admit(flow) for flow in lone)
            )
            framed = [flows(f"c{c}-f{k}-", 48) for k in range(4)]
            frames = [[admit_op(f) for f in frame] for frame in framed]
            results = await asyncio.gather(*map(client.batch, frames))
            # Mixed frames: release what each frame admitted, admit more.
            mixed = [
                [
                    {"op": "release", "flow_id": f.flow_id}
                    for f, a in zip(frame, answers)
                    if a["ok"] and a["result"]["admitted"]
                ]
                + [admit_op(f) for f in flows(f"c{c}-m{k}-", 16)]
                for k, (frame, answers) in enumerate(zip(framed, results))
            ]
            frames += mixed
            results += await asyncio.gather(*map(client.batch, mixed))
            # Pipelined lone releases; a preempted flow is no longer
            # established, which is an answer too.
            held = [d.flow_id for d in decisions if d.admitted]
            released = await asyncio.gather(
                *map(client.release, held), return_exceptions=True
            )
            await client.close()
            assert all(
                r is True or isinstance(r, AdmissionError) for r in released
            )
            # One answer per lone op, one result slot per frame sub-op.
            answered.append((
                [len(lone), len(held)] + [len(ops) for ops in frames],
                [len(decisions), len(released)] + [len(r) for r in results],
            ))

        async def scenario():
            controller = make_controller(alpha=0.05)
            service = AdmissionService(
                controller,
                ServiceConfig(audit_path=str(tmp_path / "a.jsonl")),
                preemptor=Preemptor(controller),
            )
            sock = str(tmp_path / "s.sock")
            await service.start_unix(sock)
            await asyncio.wait_for(
                asyncio.gather(
                    *(load(sock, c, ("v1", "v2")[c % 2]) for c in range(4))
                ),
                60,
            )
            stats = service.stats()
            await service.drain()
            return stats

        stats = asyncio.run(scenario())
        assert queued == []
        assert len(answered) == 4
        for sent, got in answered:
            assert got == sent
        assert stats["queue_depth"] == 0
        # The only errors are releases of flows a rescue evicted.
        assert stats["errors"] <= stats["preemption"]["preempted_flows"]
        assert stats["preemption"]["preempted_flows"] > 0


class TestLifecycleAndSnapshots:
    def test_config_validation(self):
        with pytest.raises(ServiceError):
            ServiceConfig(snapshot_interval=1.0)  # no path
        with pytest.raises(ServiceError):
            ServiceConfig(
                snapshot_path="x.json", snapshot_interval=0.0
            )

    def test_snapshot_op_without_store_is_unavailable(self, tmp_path):
        async def scenario():
            service, sock = await start_service(tmp_path)
            reader, writer = await raw_connection(sock)
            resp = await rpc(reader, writer, {"id": 1, "op": "snapshot"})
            assert resp["ok"] is False
            assert resp["error"]["code"] == "unavailable"
            writer.close()
            await service.drain()

        asyncio.run(scenario())

    def test_drain_answers_inflight_and_writes_final_snapshot(
        self, tmp_path
    ):
        snap = str(tmp_path / "snap.json")

        async def scenario():
            service, sock = await start_service(
                tmp_path, snapshot_path=snap
            )
            client = await AsyncServiceClient.connect_unix(sock)
            decision = await client.admit(
                FlowSpec("f1", "voice", "r0", "r3")
            )
            assert decision.admitted
            await client.close()
            await service.drain()
            assert service._stopped.is_set()
            # drain() is idempotent.
            await service.drain()
            return service

        service = asyncio.run(scenario())
        assert os.path.exists(snap)
        data = json.load(open(snap))
        assert data["schema"] == "repro-admission-snapshot/v1"
        assert [f["flow_id"] for f in data["flows"]] == ["f1"]

    def test_failed_final_snapshot_still_completes_the_drain(
        self, tmp_path
    ):
        # The listeners are closed by the time the final snapshot is
        # written; if that write raises and the rest of drain() is
        # skipped, serve_forever() never returns and only kill -9 ends
        # the process.
        audit = str(tmp_path / "audit.jsonl")

        async def scenario():
            service, sock = await start_service(
                tmp_path,
                snapshot_path=str(tmp_path / "no_such_dir" / "s.json"),
                audit_path=audit,
                metrics_port=0,
            )
            client = await AsyncServiceClient.connect_unix(sock)
            assert (
                await client.admit(FlowSpec("f1", "voice", "r0", "r3"))
            ).admitted
            await client.close()
            forever = asyncio.ensure_future(service.serve_forever())
            with pytest.raises(FileNotFoundError):
                await asyncio.wait_for(service.drain(), timeout=10)
            # The same failure reaches whoever blocks in
            # serve_forever() (the CLI: FAILURE + exit 1).
            with pytest.raises(FileNotFoundError):
                await asyncio.wait_for(forever, timeout=10)
            assert service.audit._fh is None  # closed => fsynced
            assert service.metrics_endpoint is None
            # A second drain (second SIGTERM) is still a no-op.
            await service.drain()

        asyncio.run(scenario())
        # Closed cleanly: the whole log verifies, the admit included.
        records = list(iter_audit(audit))
        assert verify_audit(records)["ok"]
        assert [r["kind"] for r in records].count("admit") == 1

    def test_requests_during_drain_are_unavailable(self, tmp_path):
        async def scenario():
            service, sock = await start_service(tmp_path)
            reader, writer = await raw_connection(sock)
            service._layer.draining = True
            resp = await rpc(
                reader, writer, {"id": 1, "op": "admit", "flow": flow_obj(1)}
            )
            assert resp["error"]["code"] == "unavailable"
            service._layer.draining = False
            writer.close()
            await service.drain()

        asyncio.run(scenario())

    def test_restart_restores_flows_on_pinned_routes(self, tmp_path):
        snap = str(tmp_path / "snap.json")

        async def first_life():
            service, sock = await start_service(
                tmp_path, snapshot_path=snap
            )
            client = await AsyncServiceClient.connect_unix(sock)
            for i in range(10):
                await client.admit(FlowSpec(f"f{i}", "voice", "r0", "r3"))
            await client.snapshot()
            routes = {
                f"f{i}": service.controller.committed_route(f"f{i}")
                for i in range(10)
            }
            await client.close()
            # Crash, not drain: just abandon the process state.
            service._layer.server.close()
            return routes

        async def second_life(routes):
            service, sock = await start_service(
                tmp_path, name="s2.sock", snapshot_path=snap
            )
            assert service.counts["restored"] == 10
            client = await AsyncServiceClient.connect_unix(sock)
            for fid, route in routes.items():
                assert await client.query(fid) is True
                assert service.controller.committed_route(fid) == route
            stats = await client.stats()
            assert stats["established"] == 10
            await client.close()
            await service.drain()

        routes = asyncio.run(first_life())
        asyncio.run(second_life(routes))

    def test_periodic_snapshot_task_writes(self, tmp_path):
        snap = str(tmp_path / "snap.json")

        async def scenario():
            service, sock = await start_service(
                tmp_path,
                snapshot_path=snap,
                snapshot_interval=0.05,
            )
            client = await AsyncServiceClient.connect_unix(sock)
            await client.admit(FlowSpec("f1", "voice", "r0", "r3"))
            for _ in range(100):
                if service.store.writes > 0:
                    break
                await asyncio.sleep(0.02)
            assert service.store.writes > 0
            await client.close()
            await service.drain()

        asyncio.run(scenario())
        data = json.load(open(snap))
        assert [f["flow_id"] for f in data["flows"]] == ["f1"]

    def test_a_failed_periodic_snapshot_does_not_stop_the_next(
        self, tmp_path, caplog
    ):
        # One full disk used to end the periodic snapshots for good:
        # no ERROR record, no error counted, and the drain's gather
        # swallowed the exception, so the crash-safe cut silently aged.
        snap = str(tmp_path / "snap.json")

        async def scenario():
            service, _sock = await start_service(
                tmp_path, snapshot_path=snap, snapshot_interval=0.05
            )
            store, write = service.store, service.store.write
            failed = []

            def full_once(snapshot):
                if not failed:
                    failed.append(snapshot)
                    raise OSError(errno.ENOSPC, "No space left on device")
                write(snapshot)

            store.write = full_once
            for _ in range(250):
                if failed and store.writes >= 2:
                    break
                await asyncio.sleep(0.02)
            periodic = store.writes
            await service.drain()
            return service, failed, periodic

        with caplog.at_level(logging.ERROR, logger="repro.service"):
            service, failed, periodic = asyncio.run(scenario())
        assert len(failed) == 1
        assert periodic >= 2  # written after the failed one
        assert service.counts["errors"] == 1
        assert service.counts["snapshots"] == service.store.writes
        errors = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert ["periodic snapshot failed"] == [
            r.getMessage() for r in errors
        ]
        assert "No space left" in errors[0].exc_text

    def test_a_periodic_snapshot_failing_under_drain_lets_drain_finish(
        self, tmp_path, caplog
    ):
        # Drain cancels the periodic step mid-write; the write holds its
        # file until done and then fails, so the OSError arrives in
        # place of the cancellation.  Counted as one more failed tick,
        # it would send the runner back to sleep with the cancel spent,
        # and drain would wait on it for good.
        snap = str(tmp_path / "snap.json")

        async def scenario():
            service, _sock = await start_service(
                tmp_path, snapshot_path=snap, snapshot_interval=0.05
            )
            store, write = service.store, service.store.write
            entered, released = threading.Event(), threading.Event()

            def full_under_drain(snapshot):
                if entered.is_set():
                    return write(snapshot)  # the drain's final cut
                entered.set()
                released.wait(5)
                raise OSError(errno.ENOSPC, "No space left on device")

            store.write = full_under_drain
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, entered.wait, 5)
            drain = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.05)  # drain has cancelled the step
            released.set()
            await asyncio.wait_for(drain, 2)
            return service

        with caplog.at_level(logging.ERROR, logger="repro.service"):
            service = asyncio.run(scenario())
        assert service.counts["errors"] == 1
        assert service.store.writes == service.counts["snapshots"] == 1
        assert json.load(open(snap))["flows"] == []
        assert ["periodic snapshot failed"] == [
            r.getMessage() for r in caplog.records
            if r.levelno == logging.ERROR
        ]

    def test_a_failed_governor_step_does_not_stop_the_next(
        self, tmp_path, caplog
    ):
        # The governor step rides the same periodic runner as the
        # snapshots, under the same failure policy.
        class FlakyGovernor:
            at_top, rung, effective_alpha = True, 0, 0.3

            def __init__(self):
                self.samples = 0

            def observe(self, sample):
                self.samples += 1
                if self.samples == 1:
                    raise RuntimeError("planted governor fault")
                return None

        governor = FlakyGovernor()

        async def scenario():
            service = AdmissionService(
                make_controller(),
                ServiceConfig(governor_interval=0.01),
                governor=governor,
            )
            await service.start_unix(str(tmp_path / "g.sock"))
            for _ in range(250):
                if governor.samples >= 3:
                    break
                await asyncio.sleep(0.01)
            await service.drain()
            return service

        with caplog.at_level(logging.ERROR, logger="repro.service"):
            service = asyncio.run(scenario())
        assert governor.samples >= 3
        assert service.counts["errors"] == 1
        assert service.counts["governor_moves"] == 0
        assert [
            r.getMessage() for r in caplog.records
            if r.levelno == logging.ERROR
        ] == ["governor step failed"]

    def test_one_snapshot_writer_at_a_time(self, tmp_path):
        # A worker of a cluster with --snapshot-interval writes on its
        # own timer while the supervisor's merge asks for a `snapshot`
        # op: both used to write <path>.tmp at once (a lost rename
        # answered as an error, or a torn file left on disk).
        snap = str(tmp_path / "snap.json")

        class GatedStore(SnapshotStore):
            """Holds the first write until the test opens the gate; a
            second writer arriving meanwhile opens it itself."""

            def __init__(self, path):
                super().__init__(path)
                self.gate = threading.Event()
                self.entered = threading.Event()
                self.lock = threading.Lock()
                self.active = self.most = 0

            def write(self, snapshot):
                with self.lock:
                    self.active += 1
                    self.most = max(self.most, self.active)
                    if self.active > 1:
                        self.gate.set()
                self.entered.set()
                try:
                    assert self.gate.wait(10)
                    super().write(snapshot)
                finally:
                    with self.lock:
                        self.active -= 1

        async def scenario():
            service = AdmissionService(
                make_controller(),
                ServiceConfig(snapshot_path=snap, snapshot_interval=0.01),
            )
            store = service.store = GatedStore(snap)
            sock = str(tmp_path / "s.sock")
            await service.start_unix(sock)
            client = await AsyncServiceClient.connect_unix(sock)
            # The periodic write is under way, its cut taken ...
            for _ in range(1000):
                if store.entered.is_set():
                    break
                await asyncio.sleep(0.005)
            assert store.entered.is_set()
            # ... when a flow arrives and the op asks for a newer cut.
            assert (
                await client.admit(FlowSpec("f1", "voice", "r0", "r3"))
            ).admitted
            op = asyncio.ensure_future(client.snapshot())
            await asyncio.sleep(0.1)
            store.gate.set()
            result = await asyncio.wait_for(op, 10)
            on_disk = json.load(open(snap))
            stats = await client.stats()
            await client.close()
            await service.drain()
            return store, result, on_disk, stats

        store, result, on_disk, stats = asyncio.run(scenario())
        assert store.most == 1
        assert result["flows"] == 1
        # Answered: the file holds the op's cut (or a newer one).
        assert [f["flow_id"] for f in on_disk["flows"]] == ["f1"]
        assert stats["errors"] == 0

    def test_tcp_listener(self, tmp_path):
        async def scenario():
            service = AdmissionService(make_controller())
            await service.start_tcp("127.0.0.1", 0)
            assert service.port
            client = await AsyncServiceClient.connect_tcp(
                "127.0.0.1", service.port
            )
            health = await client.health()
            assert health["status"] == "ok"
            decision = await client.admit(
                FlowSpec("f1", "voice", "r0", "r3")
            )
            assert decision.admitted
            await client.close()
            await service.drain()

        asyncio.run(scenario())

    def test_serve_forever_unblocks_on_drain(self, tmp_path):
        async def scenario():
            service, _sock = await start_service(tmp_path)
            waiter = asyncio.get_running_loop().create_task(
                service.serve_forever()
            )
            await asyncio.sleep(0.01)
            assert not waiter.done()
            await service.drain()
            await asyncio.wait_for(waiter, 10)

        asyncio.run(scenario())

    def test_stats_shape(self, tmp_path):
        async def scenario():
            service, sock = await start_service(tmp_path)
            client = await AsyncServiceClient.connect_unix(sock)
            await client.admit(FlowSpec("f1", "voice", "r0", "r3"))
            await client.release("f1")
            stats = await client.stats()
            await client.close()
            await service.drain()
            return stats

        stats = asyncio.run(scenario())
        assert stats["admitted"] == 1
        assert stats["released"] == 1
        assert stats["requests"] == 3
        assert stats["batches"] >= 1
        assert stats["mean_batch_fill"] >= 1.0
        assert stats["controller"] == "UtilizationAdmissionController"
        # The controller's O(1) tallies and the process's own memory.
        assert stats["decisions_total"] == 1
        assert stats["admitted_total"] == 1
        assert stats["rejected_total"] == 0
        assert 1.0 < stats["rss_mb"] <= stats["peak_rss_mb"] < 4096.0
        # Process start -> listening socket: fixed once the socket is
        # open, so it does not grow with uptime.
        assert 0.0 < stats["startup_seconds"] < 86400.0

    def test_snapshot_requires_restorable_controller(self, tmp_path):
        # Snapshots, the governor's headroom and preemption all read
        # the slot ledger, so a controller without one is refused at
        # construction — with or without a snapshot path — not at the
        # first restore.
        base = make_controller()
        ledgerless = FlowAwareAdmissionController(
            base.graph, base.registry, base.route_map
        )
        for config in (
            ServiceConfig(),
            ServiceConfig(snapshot_path=str(tmp_path / "s.json")),
        ):
            with pytest.raises(ServiceError, match="slot ledger"):
                AdmissionService(ledgerless, config)


class TestSnapshotStore:
    def test_empty_path_rejected(self):
        with pytest.raises(ServiceError):
            SnapshotStore("")

    def test_load_missing_returns_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "nope.json"))
        assert not store.exists()
        assert store.load() is None
        assert store.restore_into(make_controller()) == 0

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("{truncated")
        with pytest.raises(ServiceError, match="corrupt"):
            SnapshotStore(str(path)).load()

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"schema": "other/v9", "flows": []}))
        with pytest.raises(ServiceError, match="schema"):
            SnapshotStore(str(path)).load()
        path.write_text(json.dumps(["not", "an", "object"]))
        with pytest.raises(ServiceError, match="schema"):
            SnapshotStore(str(path)).load()

    def test_write_is_atomic_and_counted(self, tmp_path):
        controller = make_controller()
        controller.admit(FlowSpec("f1", "voice", "r0", "r3"))
        store = SnapshotStore(str(tmp_path / "snap.json"))
        store.write(service_snapshot(controller))
        store.write(service_snapshot(controller))
        assert store.writes == 2
        assert not os.path.exists(store.path + ".tmp")
        restored = SnapshotStore(store.path).restore_into(
            make_controller()
        )
        assert restored == 1

    @pytest.mark.parametrize("priority", [None, *PRIORITIES])
    def test_round_trip_keeps_priority_and_committed_route(
        self, tmp_path, priority
    ):
        # A restart used to hand every flow back with priority None —
        # below elastic, first in line for the preemptor.
        original = make_ring_controller()
        original.admit(
            FlowSpec("f1", "voice", "r0", "r2", priority=priority)
        )
        assert original.committed_route("f1") == ["r0", "r1", "r2"]
        store = SnapshotStore(str(tmp_path / "snap.json"))
        store.write(service_snapshot(original))
        # The restarted process resolves the pair the other way round
        # the ring: the flow still lands on the path it occupies.
        fresh = make_ring_controller()
        fresh.update_routes({("r0", "r2"): ["r0", "r3", "r2"]})
        assert SnapshotStore(store.path).restore_into(fresh) == 1
        (flow,) = fresh.established_flows
        assert flow.priority == priority
        assert fresh.committed_route("f1") == ["r0", "r1", "r2"]
        assert fresh.verify_invariants() == []
        # ... and writes the same bytes again.
        again = SnapshotStore(str(tmp_path / "again.json"))
        again.write(service_snapshot(fresh))
        with open(store.path) as a, open(again.path) as b:
            assert a.read() == b.read()

    def test_priority_less_file_is_the_pre_priority_format(self, tmp_path):
        # Byte-for-byte what the parent of this change wrote, and a file
        # written by it (no "priority" key anywhere) still loads.
        legacy = (
            '{"alphas":{"voice":0.3},"flows":[{"class_name":"voice",'
            '"destination":"r2","flow_id":"f1","route":["r0","r1","r2"],'
            '"source":"r0"}],"schema":"repro-admission-snapshot/v1"}\n'
        )
        controller = make_ring_controller()
        controller.admit(FlowSpec("f1", "voice", "r0", "r2"))
        store = SnapshotStore(str(tmp_path / "snap.json"))
        store.write(service_snapshot(controller))
        with open(store.path) as fh:
            assert fh.read() == legacy
        path = tmp_path / "legacy.json"
        path.write_text(legacy)
        fresh = make_ring_controller()
        assert SnapshotStore(str(path)).restore_into(fresh) == 1
        assert fresh.established_flows[0].priority is None

    def test_malformed_record_is_a_repro_error(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro-admission-snapshot/v1",
                    "alphas": {"voice": 0.3},
                    "flows": [{"flow_id": "x"}],
                }
            )
        )
        with pytest.raises(ReproError, match="malformed flow record"):
            SnapshotStore(str(path)).restore_into(make_controller())


class TestProtocolNegotiation(FrontDoorCases):
    """The hello exchange happens before any ordinary request id."""

    def hello_line(self, proposed=protocol.PROTOCOL_SCHEMA_V2):
        return {
            "id": protocol.HELLO_ID,
            "op": protocol.HELLO_OP,
            "protocol": proposed,
        }

    def test_v2_hello_upgrades_and_answers_ok(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            resp = await rpc(reader, writer, self.hello_line())
            assert resp["ok"] and resp["id"] == protocol.HELLO_ID
            assert (
                resp["result"]["protocol"] == protocol.PROTOCOL_SCHEMA_V2
            )
            # The connection is binary now: a framed stats request
            # round-trips, with id 1 as the first ordinary id.
            frame = protocol.encode_frame_v2({"id": 1, "op": "stats"})
            writer.write(frame)
            await writer.drain()
            header = await reader.readexactly(protocol.FRAME_HEADER_BYTES)
            payload = await reader.readexactly(
                int.from_bytes(header, "big")
            )
            tag, obj = protocol.decode_payload_v2(payload)
            assert tag == protocol.TAG_JSON
            assert obj["id"] == 1 and obj["ok"]
            writer.close()
            await service.stop()

        asyncio.run(scenario())

    def test_v1_hello_is_acknowledged_without_upgrade(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            resp = await rpc(
                reader, writer, self.hello_line(protocol.PROTOCOL_SCHEMA)
            )
            assert resp["ok"]
            assert resp["result"]["protocol"] == protocol.PROTOCOL_SCHEMA
            # Still newline JSON.
            resp = await rpc(reader, writer, {"id": 1, "op": "health"})
            assert resp["ok"]
            writer.close()
            await service.stop()

        asyncio.run(scenario())

    def test_unsupported_proposal_refused_connection_stays_v1(
        self, tmp_path
    ):
        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            resp = await rpc(
                reader, writer, self.hello_line("repro-admission-rpc/v9")
            )
            assert not resp["ok"]
            assert resp["error"]["code"] == protocol.BAD_REQUEST
            resp = await rpc(reader, writer, {"id": 1, "op": "health"})
            assert resp["ok"]
            writer.close()
            await service.stop()

        asyncio.run(scenario())

    def test_late_hello_is_refused(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            resp = await rpc(reader, writer, {"id": 1, "op": "health"})
            assert resp["ok"]
            resp = await rpc(reader, writer, self.hello_line())
            assert not resp["ok"]
            assert resp["error"]["code"] == protocol.BAD_REQUEST
            assert "first request" in resp["error"]["message"]
            # And the connection still serves v1.
            resp = await rpc(reader, writer, {"id": 2, "op": "stats"})
            assert resp["ok"]
            writer.close()
            await service.stop()

        asyncio.run(scenario())

    def test_pre_v2_server_answers_hello_with_unknown_op(self, tmp_path):
        """Against a peer that predates ``hello``, the proposal settles
        on v1 and the same connection goes on in v1 lines."""

        async def scenario():
            sock = str(tmp_path / "old.sock")
            peer, seen = await start_pre_v2_peer(sock)
            reader, writer = await raw_connection(sock)
            generation = await propose_v2(
                reader, writer, protocol.MAX_FRAME_BYTES
            )
            assert generation == 1
            resp = await rpc(reader, writer, {"id": 1, "op": "health"})
            assert resp["ok"]
            writer.close()
            peer.close()
            await peer.wait_closed()
            return seen

        seen = asyncio.run(scenario())
        assert [(r["id"], r["op"]) for r in seen] == [
            (protocol.HELLO_ID, protocol.HELLO_OP), (1, "health")
        ]

    def test_v2_client_falls_back_transparently_on_old_server(
        self, tmp_path
    ):
        """Satellite back-compat: a v2-preferring client against a
        pre-v2 server lands on v1 with ordinary ids starting at 1 —
        exactly as if v1 had been requested all along."""

        async def scenario():
            sock = str(tmp_path / "old.sock")
            peer, seen = await start_pre_v2_peer(sock)
            client = await AsyncServiceClient.connect_unix(
                sock, protocol="v2"
            )
            assert client.negotiated_protocol == "v1"
            # The hello consumed the reserved id 0 only; the first real
            # request is id 1.
            assert client._next_id == 0
            decision = await client.admit(
                FlowSpec("bc1", "voice", "r0", "r3")
            )
            assert decision.admitted
            assert client._next_id == 1
            assert await client.release("bc1")
            await client.close()
            peer.close()
            await peer.wait_closed()
            return seen

        seen = asyncio.run(scenario())
        assert [r["id"] for r in seen] == [protocol.HELLO_ID, 1, 2]

    def test_v2_client_against_v2_server_same_first_request_id(
        self, tmp_path
    ):
        async def scenario():
            service, sock = await self.start(tmp_path)
            client = await AsyncServiceClient.connect_unix(
                sock, protocol="v2"
            )
            assert client.negotiated_protocol == "v2"
            decision = await client.admit(
                FlowSpec("bc2", "voice", "r0", "r3")
            )
            assert decision.admitted
            assert client._next_id == 1
            await client.close()
            await service.stop()

        asyncio.run(scenario())


#: The coroutines of a listener's read loops.
_READ_LOOPS = frozenset(
    f.__code__
    for f in (
        ConnectionLayer.serve,
        ConnectionLayer._read_v1,
        ConnectionLayer._read_v2,
    )
)


def _carries(obj, marker, depth=0):
    """Whether ``obj`` is, or holds, a decoded or raw copy of text that
    contains ``marker`` (through containers and records only)."""
    if isinstance(obj, (bytes, bytearray)):
        return marker.encode() in obj
    if isinstance(obj, str):
        return marker in obj
    if depth > 8:
        return False
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        return False
    return any(_carries(item, marker, depth + 1) for item in items)


def _held_by_read_loops(marker, loops=_READ_LOOPS):
    """``(loop, held type)`` for everything a read loop still holds of
    a frame that named ``marker``."""
    gc.collect()
    return [
        (obj.cr_code.co_name, type(ref).__name__)
        for obj in gc.get_objects()
        if inspect.iscoroutine(obj) and obj.cr_code in loops
        for ref in gc.get_referents(obj)
        if _carries(ref, marker)
    ]


def _running(loops):
    """How many coroutines of ``loops`` are alive."""
    return sum(
        1 for obj in gc.get_objects()
        if inspect.iscoroutine(obj) and obj.cr_code in loops
    )


class TestReadLoopLetsGoOfEachFrame(FrontDoorCases):
    """Once a frame is answered and its connection waits for the next,
    the read loop holds nothing of it: a frame lives as long as its
    request task, so a server never holds two decoded frames of one
    connection."""

    @pytest.mark.parametrize("proto", ["v2", "v1"])
    def test_an_answered_frame_is_not_held_while_the_next_is_read(
        self, tmp_path, proto
    ):
        marker = "frame-marker-5e1"
        admit = {**flow_obj(0), "id": f"{marker}-admitted"}
        gone = f"{marker}-never-admitted"

        async def scenario():
            service, sock = await self.start(tmp_path)
            reader, writer = await raw_connection(sock)
            try:
                if proto == "v2":
                    assert await propose_v2(
                        reader, writer, protocol.MAX_FRAME_BYTES
                    ) == 2
                    writer.write(protocol.encode_bulk_request(
                        1,
                        [[protocol.BULK_ADMIT, admit["id"], "voice",
                          admit["src"], admit["dst"], None],
                         [protocol.BULK_RELEASE, gone]],
                    ))
                    await writer.drain()
                    header = await asyncio.wait_for(
                        reader.readexactly(protocol.FRAME_HEADER_BYTES), 10
                    )
                    tag, (_rid, slots) = protocol.decode_payload_v2(
                        await reader.readexactly(
                            int.from_bytes(header, "big")
                        )
                    )
                    assert tag == protocol.TAG_RESULTS
                    kinds = [slot[0] for slot in slots]
                    assert kinds == [
                        protocol.SLOT_ADMITTED, protocol.SLOT_ERROR
                    ]
                else:
                    resp = await rpc(reader, writer, {
                        "id": 1,
                        "op": "batch",
                        "ops": [
                            {"op": "admit", "flow": admit},
                            {"op": "release", "flow_id": gone},
                        ],
                    })
                    results = resp["result"]["results"]
                    assert results[0]["result"]["admitted"]
                    assert not results[1]["ok"]
                # Answered; the loop is back waiting for a next frame.
                await asyncio.sleep(0.05)
                return _held_by_read_loops(marker)
            finally:
                writer.close()
                await service.stop()

        assert asyncio.run(scenario()) == []


class TestDiallingLoopLetsGoOfEachFrame:
    """The dialling side's read loop (``conn.read_responses``, which a
    client and a front door's worker link run) holds nothing of a
    response it delivered while it awaits the next one."""

    _LOOPS = frozenset({read_responses.__code__})

    @pytest.mark.parametrize("door", ["server", "router"])
    @pytest.mark.parametrize("proto", ["v2", "v1"])
    def test_a_delivered_response_is_not_held_while_the_next_is_read(
        self, tmp_path, door, proto
    ):
        marker = "dial-marker-7c3"

        async def scenario():
            starter = start_router if door == "router" else start_service
            service, sock = await starter(tmp_path)
            client = await AsyncServiceClient.connect_unix(sock, protocol=proto)
            try:
                (result,) = await client.batch(
                    [{"op": "release", "flow_id": f"{marker}-never-admitted"}]
                )
                assert not result["ok"] and marker in result["error"]["message"]
                # Delivered; each loop is back waiting for a next frame.
                await asyncio.sleep(0.05)
                return _running(self._LOOPS), _held_by_read_loops(marker, self._LOOPS)
            finally:
                await client.close()
                await service.drain()

        # The client's loop, and the front door's link to its worker.
        assert asyncio.run(scenario()) == (1 + (door == "router"), [])


class TestProtocolHardeningRouter(TestProtocolHardening):
    door = "router"


class TestProtocolNegotiationRouter(TestProtocolNegotiation):
    door = "router"


class TestLoneOpIsAFrameOfOneRouter(TestLoneOpIsAFrameOfOne):
    door = "router"


class TestReadLoopLetsGoOfEachFrameRouter(TestReadLoopLetsGoOfEachFrame):
    door = "router"
