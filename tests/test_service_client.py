"""Tests for the service client library and the trace-replay bridge."""

import asyncio
import gc
import json
import threading
from unittest import mock

import pytest

from repro.admission import UtilizationAdmissionController
from repro.admission.statistics import replay_schedule
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
)
from repro.topology import LinkServerGraph, line_network
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs
from repro.service import replay as replay_module
from repro.workload.loadgen import (
    LoadgenResult,
    assign_priorities,
    parse_priority_mix,
    poisson_timeline,
    tally_priorities,
)
from repro.workload.trace import TraceEvent, read_trace, write_trace


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


async def start_overloaded_stub(sock, refusals):
    """A v1 server that answers its first ``refusals`` requests
    ``overloaded`` (as a cluster router's worker link at its bound does)
    and admits every one after; also returns the request ids it saw."""
    seen = []

    async def answer(reader, writer):
        while line := await reader.readline():
            rid = json.loads(line)["id"]
            seen.append(rid)
            if len(seen) <= refusals:
                response = protocol.error_response(
                    rid, protocol.OVERLOADED, "link at its bound; retry later"
                )
            else:
                response = protocol.ok_response(
                    rid, {"admitted": True, "reason": "ok", "batch_size": 1}
                )
            writer.write(protocol.encode_frame(response))
            await writer.drain()
        writer.close()

    return await asyncio.start_unix_server(answer, sock), seen


async def start_hang_up_stub(sock, v2):
    """A server that drops every connection: on accept, or, for a v2
    client, right after agreeing to the binary framing."""

    async def hang_up(reader, writer):
        if v2:
            await reader.readline()
            writer.write(protocol.encode_frame(protocol.ok_response(
                protocol.HELLO_ID, {"protocol": protocol.PROTOCOL_SCHEMA_V2}
            )))
            await writer.drain()
        writer.close()

    return await asyncio.start_unix_server(hang_up, sock)


#: One call down each send path: a request, the two ops built on it, and
#: a packed bulk frame (a v2 ``batch`` is one too).
CALLS = {
    "request": lambda client: client.request("stats"),
    "admit": lambda client: client.admit(FlowSpec("f1", "voice", "r0", "r3")),
    "batch": lambda client: client.batch([{"op": "release", "flow_id": "f1"}]),
    "bulk": lambda client: client.bulk([[protocol.BULK_RELEASE, "f1"]]),
}


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
        """Two ``overloaded`` answers, then the server resumes: the
        client retries under its backoff, each attempt a fresh id."""
        sock = str(tmp_path / "stub.sock")

        async def scenario():
            stub, seen = await start_overloaded_stub(sock, refusals=2)
            client = await AsyncServiceClient.connect_unix(
                sock, backoff=BackoffPolicy(base=0.01, max_retries=8)
            )
            decision = await client.admit(
                FlowSpec("f1", "voice", "r0", "r3")
            )
            await client.close()
            stub.close()
            await stub.wait_closed()
            return decision, seen

        decision, seen = asyncio.run(scenario())
        assert decision.admitted
        assert seen == [1, 2, 3]

    def test_overloaded_raises_without_retry(self, tmp_path):
        sock = str(tmp_path / "stub.sock")

        async def scenario():
            stub, seen = await start_overloaded_stub(sock, refusals=1)
            client = await AsyncServiceClient.connect_unix(
                sock, retry_overloaded=False
            )
            with pytest.raises(ServiceOverloadedError):
                await client.admit(FlowSpec("f1", "voice", "r0", "r3"))
            await client.close()
            stub.close()
            await stub.wait_closed()
            return seen

        assert asyncio.run(scenario()) == [1]

    @pytest.mark.parametrize("settle", [0.0, 0.05])
    @pytest.mark.parametrize(
        "call,wire",
        [(c, w) for c in CALLS for w in ("v1", "v2") if (c, w) != ("bulk", "v1")],
    )
    def test_lost_connection_is_a_service_error(
        self, tmp_path, call, wire, settle
    ):
        """Every call on a connection the server dropped raises
        ServiceError and leaves no waiter behind — whether the write,
        the drain or the read sees the loss first (``settle`` lets the
        client's reader see the hang-up before the call)."""
        sock = str(tmp_path / "stub.sock")

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: unhandled.append(context["message"])
            )
            stub = await start_hang_up_stub(sock, v2=wire == "v2")
            client = await AsyncServiceClient.connect_unix(sock, protocol=wire)
            assert client.negotiated_protocol == wire
            await asyncio.sleep(settle)
            with pytest.raises(ServiceError):
                await CALLS[call](client)
            assert client._pending == {}
            await client.close()
            stub.close()
            await stub.wait_closed()
            gc.collect()  # an unretrieved future reports itself here
            return unhandled

        assert asyncio.run(scenario()) == []

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
    a flow that never arrived (must be skipped, as replay_schedule()
    does)."""
    events = [
        TraceEvent(float(i), "arrival", f"f{i}", "voice", "r0", "r3")
        for i in range(10)
    ]
    events += [
        TraceEvent(10.0 + i, "departure", f"f{i}") for i in range(5)
    ]
    events.append(TraceEvent(99.0, "departure", "never-arrived"))
    return events


def replay(sock, events, frame_size=512, wire="v1", connections=1):
    """``replay_events`` over fresh connections, ``frame_size`` ops a
    frame at most; the result and the server's ``stats`` after it."""

    async def scenario():
        clients = [
            await AsyncServiceClient.connect_unix(sock, protocol=wire)
            for _ in range(connections)
        ]
        try:
            result = await replay_events(clients, events)
            return result, await clients[0].stats()
        finally:
            for client in clients:
                await client.close()

    with mock.patch.object(replay_module, "FRAME_SIZE", frame_size):
        return asyncio.run(scenario())


def sequential_reference(controller, events):
    """What one connection must decide: ``replay_schedule``'s counts,
    and its per-priority table taken from its lifetimes."""
    stats = replay_schedule(controller, events)
    admitted = set(stats.admitted_ids)
    released = sum(lifetime.stop is not None for lifetime in stats.lifetimes)
    per_priority = tally_priorities([
        (e.priority, e.flow_id in admitted)
        for e in events if e.kind == "arrival"
    ])
    return {
        "arrivals": stats.attempts,
        "admitted": stats.admitted,
        "rejected": stats.rejected,
        "released": released,
        "skipped": len(events) - stats.attempts - released,
        "per_priority": per_priority,
    }


def rejecting_line4_events():
    """572 arrivals between line-4 pairs with a hard/soft/elastic mix;
    at alpha 0.01, 172 of them are rejected."""
    pairs = all_ordered_pairs(line_network(4))
    events = poisson_timeline(
        lambda rng: pairs[int(rng.integers(len(pairs)))],
        "voice",
        arrival_rate=200,
        mean_holding=1,
        horizon=3,
        seed=5,
        id_prefix="d",
    )
    mix = parse_priority_mix("hard_rt=1,soft_rt=2,elastic=7")
    return assign_priorities(events, mix, seed=5)


class TestReplayBridge:
    def test_replay_matches_in_process_drive(self, server):
        events = line4_events()
        twin = make_controller()
        reference = sequential_reference(twin, events)
        result, stats = replay(server.sock, events, frame_size=4)
        assert result.num_arrivals == reference["arrivals"] == 10
        assert result.num_admitted == reference["admitted"] == 10
        assert result.num_rejected == reference["rejected"] == 0
        assert result.num_released == reference["released"] == 5
        assert result.num_skipped == reference["skipped"] == 1
        assert result.num_errors == 0
        assert result.frames == 4
        assert result.total_ops == 15
        assert server.service.controller.num_established == 5
        # The departure of the flow that never arrived was not sent.
        assert stats["errors"] == 0
        assert stats["coalesced_ops"] == 15

    def test_replay_from_trace_file(self, server, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, line4_events(), meta={"purpose": "test"})
        _meta, events = read_trace(path)
        result, _stats = replay(server.sock, events, frame_size=100)
        assert result.num_admitted == 10
        assert result.num_released == 5
        # The five departures follow their admits in one frame: the
        # frame ends before the first of them.
        assert result.frames == 2

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
        result, _stats = replay(server.sock, events)
        assert result.num_admitted == 1
        controller = server.service.controller
        assert controller.committed_route("pinned") == [
            "r0",
            "r1",
            "r2",
            "r3",
        ]


class TestReplayDifferential:
    """One connection decides what the in-process sequential replay
    decides, and releases only what it saw admitted."""

    @pytest.mark.parametrize("wire", ["v1", "v2"])
    def test_rejecting_trace_matches_sequential_drive(self, tmp_path, wire):
        events = rejecting_line4_events()
        twin = make_controller(alpha=0.01)
        reference = sequential_reference(twin, events)
        assert reference["rejected"] > 100 and reference["per_priority"]
        with ServerThread(str(tmp_path / "s.sock"), alpha=0.01) as srv:
            result, stats = replay(srv.sock, events, frame_size=64, wire=wire)
        assert {
            "arrivals": result.num_arrivals,
            "admitted": result.num_admitted,
            "rejected": result.num_rejected,
            "released": result.num_released,
            "skipped": result.num_skipped,
            "per_priority": result.per_priority,
        } == reference
        assert result.num_errors == 0
        assert stats["errors"] == 0
        assert stats["coalesced_ops"] == (
            reference["arrivals"] + reference["released"]
        )
        assert stats["established"] == twin.num_established

    def test_fan_out_releases_only_admitted_flows(self, tmp_path):
        events = rejecting_line4_events()
        with ServerThread(str(tmp_path / "s.sock"), alpha=0.01) as srv:
            result, stats = replay(
                srv.sock, events, frame_size=64, connections=3
            )
        assert result.num_arrivals == 572
        assert result.num_errors == stats["errors"] == 0
        assert result.num_released == result.num_admitted
        assert result.num_skipped == result.num_rejected
        assert stats["coalesced_ops"] == 572 + result.num_released
        assert stats["established"] == 0


class TestFrameLatency:
    @staticmethod
    def with_latencies(latencies):
        return LoadgenResult(
            batch_size=1, num_arrivals=0, num_admitted=0,
            num_rejected=0, num_released=0, elapsed_seconds=1.0,
            frame_latencies=tuple(latencies),
        )

    def test_percentile_is_nearest_rank(self):
        hundred = self.with_latencies(range(1, 101))
        assert hundred.latency_percentile(0.99) == 99
        assert hundred.latency_percentile(0.50) == 50
        assert hundred.latency_percentile(1.0) == 100
        assert hundred.latency_percentile(0.0) == 1
        assert self.with_latencies([2, 1]).latency_percentile(0.5) == 1

    def test_no_frames_no_latency(self):
        result = self.with_latencies([])
        assert result.frames == 0
        assert result.latency_summary() == {
            "p50_ms": 0.0, "p90_ms": 0.0, "p99_ms": 0.0,
        }
