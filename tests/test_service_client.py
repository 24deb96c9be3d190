"""Tests for the service client library and the trace-replay bridge."""

import asyncio
import threading

import pytest

from repro.admission import UtilizationAdmissionController
from repro.errors import (
    AdmissionError,
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.faults import BackoffPolicy
from repro.routing.shortest import shortest_path_routes
from repro.service import (
    AdmissionService,
    AsyncServiceClient,
    ServiceClient,
    ServiceConfig,
    protocol,
    replay_events,
    replay_trace,
)
from repro.topology import LinkServerGraph, line_network
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs
from repro.workload import drive
from repro.workload.trace import TraceEvent, write_trace


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


class ServerThread:
    """An AdmissionService on its own event loop in a daemon thread, so
    the *synchronous* client can be exercised against a live socket."""

    def __init__(self, sock, alpha=0.3, **config_kwargs):
        self.sock = sock
        self.alpha = alpha
        self.config = ServiceConfig(**config_kwargs)
        self.service = None
        self.loop = None
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(30)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.service = AdmissionService(
            make_controller(self.alpha), self.config
        )
        await self.service.start_unix(self.sock)
        self.loop = asyncio.get_running_loop()
        self._ready.set()
        await self.service.serve_forever()

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.service.drain(), self.loop
        ).result(30)
        self.thread.join(30)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.stop()


@pytest.fixture()
def server(tmp_path):
    with ServerThread(str(tmp_path / "s.sock")) as srv:
        yield srv


class TestSyncClient:
    def test_full_surface_roundtrip(self, server):
        with ServiceClient(socket_path=server.sock) as client:
            decision = client.admit(FlowSpec("f1", "voice", "r0", "r3"))
            assert decision.admitted and decision.flow_id == "f1"
            assert client.query("f1") is True
            results = client.batch(
                [
                    {
                        "op": "admit",
                        "flow": {
                            "id": "f2",
                            "cls": "voice",
                            "src": "r1",
                            "dst": "r2",
                        },
                    },
                    {"op": "release", "flow_id": "f1"},
                ]
            )
            assert results[0]["ok"] and results[0]["result"]["admitted"]
            assert results[1]["ok"] and results[1]["result"]["released"]
            assert client.query("f1") is False
            health = client.health()
            assert health["status"] == "ok"
            stats = client.stats()
            assert stats["established"] == 1

    def test_admission_errors_surface_as_exceptions(self, server):
        with ServiceClient(socket_path=server.sock) as client:
            client.admit(FlowSpec("f1", "voice", "r0", "r3"))
            with pytest.raises(AdmissionError):
                client.admit(FlowSpec("f1", "voice", "r0", "r3"))
            with pytest.raises(AdmissionError):
                client.release("ghost")

    def test_unknown_op_maps_to_protocol_error(self, server):
        with ServiceClient(socket_path=server.sock) as client:
            with pytest.raises(ProtocolError) as err:
                client.request("frobnicate")
            assert err.value.code == protocol.UNKNOWN_OP

    def test_close_is_idempotent(self, server):
        client = ServiceClient(socket_path=server.sock)
        client.health()
        client.close()
        client.close()

    def test_constructor_validation(self):
        with pytest.raises(ServiceError):
            ServiceClient()
        with pytest.raises(ServiceError):
            ServiceClient(socket_path="x", host="y", port=1)
        with pytest.raises(ServiceError):
            ServiceClient(host="localhost")

    def test_connect_failure_after_retries(self, tmp_path):
        with pytest.raises(ServiceError):
            ServiceClient(
                socket_path=str(tmp_path / "nope.sock"),
                backoff=BackoffPolicy(base=0.01, max_retries=1),
            )


class TestAsyncClient:
    def test_connect_retries_until_server_is_up(self, tmp_path):
        sock = str(tmp_path / "late.sock")

        async def scenario():
            service = AdmissionService(make_controller())

            async def late_start():
                await asyncio.sleep(0.15)
                await service.start_unix(sock)

            starter = asyncio.get_running_loop().create_task(
                late_start()
            )
            client = await AsyncServiceClient.connect_unix(
                sock, backoff=BackoffPolicy(base=0.05, max_retries=10)
            )
            await starter
            health = await client.health()
            assert health["status"] == "ok"
            await client.close()
            await service.drain()

        asyncio.run(scenario())

    def test_overloaded_retry_succeeds_after_resume(self, tmp_path):
        sock = str(tmp_path / "s.sock")

        async def scenario():
            service = AdmissionService(
                make_controller(),
                ServiceConfig(high_water=1, low_water=0),
            )
            await service.start_unix(sock)
            filler = await AsyncServiceClient.connect_unix(sock)
            client = await AsyncServiceClient.connect_unix(
                sock, backoff=BackoffPolicy(base=0.05, max_retries=8)
            )
            service.coalescer.pause()
            # Fill the queue past the high-water mark.
            hold = filler._submit(
                "admit",
                {
                    "flow": {
                        "id": "hold",
                        "cls": "voice",
                        "src": "r0",
                        "dst": "r3",
                    }
                },
            )
            while service.coalescer.pending < 1:
                await asyncio.sleep(0.005)

            async def unblock():
                await asyncio.sleep(0.15)
                service.coalescer.resume()

            unblocker = asyncio.get_running_loop().create_task(unblock())
            decision = await client.admit(
                FlowSpec("f1", "voice", "r0", "r3")
            )
            assert decision.admitted
            assert service.counts["shed"] >= 1
            await unblocker
            await hold
            await filler.close()
            await client.close()
            await service.drain()

        asyncio.run(scenario())

    def test_overloaded_raises_without_retry(self, tmp_path):
        sock = str(tmp_path / "s.sock")

        async def scenario():
            service = AdmissionService(
                make_controller(),
                ServiceConfig(high_water=1, low_water=0),
            )
            await service.start_unix(sock)
            filler = await AsyncServiceClient.connect_unix(sock)
            client = await AsyncServiceClient.connect_unix(
                sock, retry_overloaded=False
            )
            service.coalescer.pause()
            hold = filler._submit(
                "admit",
                {
                    "flow": {
                        "id": "hold",
                        "cls": "voice",
                        "src": "r0",
                        "dst": "r3",
                    }
                },
            )
            while service.coalescer.pending < 1:
                await asyncio.sleep(0.005)
            with pytest.raises(ServiceOverloadedError):
                await client.admit(FlowSpec("f1", "voice", "r0", "r3"))
            service.coalescer.resume()
            await hold
            await filler.close()
            await client.close()
            await service.drain()

        asyncio.run(scenario())

    def test_pipelined_requests_resolve_by_id(self, tmp_path):
        sock = str(tmp_path / "s.sock")

        async def scenario():
            service = AdmissionService(make_controller())
            await service.start_unix(sock)
            client = await AsyncServiceClient.connect_unix(sock)
            decisions = await asyncio.gather(
                *(
                    client.admit(FlowSpec(f"f{i}", "voice", "r0", "r3"))
                    for i in range(50)
                )
            )
            assert [d.flow_id for d in decisions] == [
                f"f{i}" for i in range(50)
            ]
            assert all(d.admitted for d in decisions)
            stats = await client.stats()
            # Pipelined requests coalesce: far fewer batches than ops.
            assert stats["batches"] < 50
            await client.close()
            await service.drain()

        asyncio.run(scenario())

    def test_server_death_fails_pending_requests(self, tmp_path):
        sock = str(tmp_path / "s.sock")

        async def scenario():
            service = AdmissionService(make_controller())
            await service.start_unix(sock)
            client = await AsyncServiceClient.connect_unix(sock)
            await client.health()
            await service.drain()
            with pytest.raises(ServiceError):
                await client.health()
            await client.close()

        asyncio.run(scenario())


    def test_over_limit_response_line_fails_pending_calls(self, tmp_path):
        """A response line past the frame limit cannot be delimited:
        every pending call fails with the reason (it used to kill the
        dispatcher task and leave the calls waiting forever)."""
        sock = str(tmp_path / "stub.sock")

        async def oversized_answer(reader, writer):
            await reader.readline()
            writer.write(b"x" * (protocol.MAX_FRAME_BYTES + 10) + b"\n")
            await writer.drain()

        async def scenario():
            stub = await asyncio.start_unix_server(oversized_answer, sock)
            client = await AsyncServiceClient.connect_unix(sock)
            calls = [client.stats(), client.health()]
            results = await asyncio.wait_for(
                asyncio.gather(*calls, return_exceptions=True), 1
            )
            for result in results:
                assert isinstance(result, ProtocolError)
                assert result.code == protocol.FRAME_TOO_LARGE
            await client.close()
            stub.close()
            await stub.wait_closed()

        asyncio.run(scenario())


def line4_events():
    """10 arrivals r0->r3, departures for the first 5, one departure of
    a flow that never arrived (must be skipped, as drive() does)."""
    events = [
        TraceEvent(float(i), "arrival", f"f{i}", "voice", "r0", "r3")
        for i in range(10)
    ]
    events += [
        TraceEvent(10.0 + i, "departure", f"f{i}") for i in range(5)
    ]
    events.append(TraceEvent(99.0, "departure", "never-arrived"))
    return events


class TestReplayBridge:
    def test_replay_matches_in_process_drive(self, server):
        events = line4_events()
        twin = make_controller()
        reference = drive(twin, events, mode="sequential")
        with ServiceClient(socket_path=server.sock) as client:
            result = replay_events(client, events, frame_size=4)
        assert result.num_arrivals == reference.num_arrivals == 10
        assert result.num_admitted == reference.num_admitted == 10
        assert result.num_rejected == reference.num_rejected == 0
        assert result.num_released == reference.num_released == 5
        assert result.num_skipped == 1
        assert result.num_errors == 0
        assert result.frames == 4
        assert result.total_ops == reference.total_ops
        assert server.service.controller.num_established == 5

    def test_replay_from_trace_file(self, server, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, line4_events(), meta={"purpose": "test"})
        with ServiceClient(socket_path=server.sock) as client:
            result = replay_trace(client, path, frame_size=100)
        assert result.num_admitted == 10
        assert result.num_released == 5
        assert result.frames == 1

    def test_pinned_routes_survive_the_wire(self, server):
        events = [
            TraceEvent(
                0.0,
                "arrival",
                "pinned",
                "voice",
                "r0",
                "r3",
                route=("r0", "r1", "r2", "r3"),
            )
        ]
        with ServiceClient(socket_path=server.sock) as client:
            result = replay_events(client, events)
        assert result.num_admitted == 1
        controller = server.service.controller
        assert controller.committed_route("pinned") == [
            "r0",
            "r1",
            "r2",
            "r3",
        ]

    def test_frame_size_validation(self, server):
        with ServiceClient(socket_path=server.sock) as client:
            with pytest.raises(Exception):
                replay_events(client, [], frame_size=0)
