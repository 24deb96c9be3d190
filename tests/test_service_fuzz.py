"""Frame fuzzing for the v2 binary protocol.

A byte stream from a fuzzer (or a confused v1 client) must never wedge
the server: every malformed length prefix, truncated payload,
oversized frame, or mid-frame disconnect either earns a structured
error or a clean close — and the coalescer keeps serving well-formed
clients on other connections throughout.
"""

import asyncio
import json
import random

from repro.service import AsyncServiceClient, protocol
from repro.traffic.flows import FlowSpec

from test_service_server import (
    FrontDoorCases,
    start_router,
    start_service,
)


HELLO_V2 = protocol.encode_frame(
    {
        "id": protocol.HELLO_ID,
        "op": protocol.HELLO_OP,
        "protocol": protocol.PROTOCOL_SCHEMA_V2,
    }
)


async def negotiated_v2_connection(sock):
    """A raw (reader, writer) pair already upgraded to v2 framing."""
    reader, writer = await asyncio.open_unix_connection(sock)
    writer.write(HELLO_V2)
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), 10)
    hello = json.loads(line)
    assert hello["ok"] and (
        hello["result"]["protocol"] == protocol.PROTOCOL_SCHEMA_V2
    )
    return reader, writer


async def read_v2_error(reader):
    """Read one binary frame and return its carried error object."""
    header = await asyncio.wait_for(
        reader.readexactly(protocol.FRAME_HEADER_BYTES), 10
    )
    payload = await asyncio.wait_for(
        reader.readexactly(int.from_bytes(header, "big")), 10
    )
    tag, obj = protocol.decode_payload_v2(payload)
    assert tag == protocol.TAG_JSON
    assert obj["ok"] is False
    return obj["error"]


async def assert_still_serving(sock):
    """The service must still admit a well-formed flow over v2."""
    client = await AsyncServiceClient.connect_unix(sock, protocol="v2")
    try:
        assert client.negotiated_protocol == "v2"
        decision = await client.admit(
            FlowSpec("fuzz-probe", "voice", "r0", "r3")
        )
        assert decision.admitted
        assert await client.release("fuzz-probe")
    finally:
        await client.close()


def run(coro):
    asyncio.run(coro)


class TestMalformedPrefixes(FrontDoorCases):
    def test_oversized_length_prefix_is_frame_too_large(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            try:
                reader, writer = await negotiated_v2_connection(sock)
                writer.write((1 << 24).to_bytes(4, "big") + b"J{}")
                await writer.drain()
                err = await read_v2_error(reader)
                assert err["code"] == protocol.FRAME_TOO_LARGE
                # The prefix cannot be trusted: server closes.
                assert await reader.read() == b""
                await assert_still_serving(sock)
            finally:
                await service.stop()

        run(scenario())

    def test_zero_length_frame_is_bad_request(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            try:
                reader, writer = await negotiated_v2_connection(sock)
                writer.write(b"\x00\x00\x00\x00")
                await writer.drain()
                err = await read_v2_error(reader)
                assert err["code"] == protocol.BAD_REQUEST
                await assert_still_serving(sock)
            finally:
                await service.stop()

        run(scenario())

    def test_v1_line_on_v2_connection_is_diagnosed(self, tmp_path):
        # A '{' where the length prefix belongs decodes as a >=2 GiB
        # length; the server names the actual mistake.
        async def scenario():
            service, sock = await self.start(tmp_path)
            try:
                reader, writer = await negotiated_v2_connection(sock)
                writer.write(
                    protocol.encode_frame({"id": 1, "op": "stats"})
                )
                await writer.drain()
                err = await read_v2_error(reader)
                assert err["code"] == protocol.BAD_REQUEST
                assert "v1 text frame" in err["message"]
                assert await reader.read() == b""
                await assert_still_serving(sock)
            finally:
                await service.stop()

        run(scenario())


class TestTruncationAndDisconnects(FrontDoorCases):
    def test_mid_header_disconnect(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            try:
                reader, writer = await negotiated_v2_connection(sock)
                writer.write(b"\x00\x00")  # half a length prefix
                await writer.drain()
                writer.close()
                await assert_still_serving(sock)
            finally:
                await service.stop()

        run(scenario())

    def test_mid_payload_disconnect(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            try:
                reader, writer = await negotiated_v2_connection(sock)
                # Claim 100 bytes, deliver 5, vanish.
                writer.write((100).to_bytes(4, "big") + b"J[1,2")
                await writer.drain()
                writer.close()
                await assert_still_serving(sock)
            finally:
                await service.stop()

        run(scenario())

    def test_disconnect_between_frames_after_real_work(self, tmp_path):
        async def scenario():
            service, sock = await self.start(tmp_path)
            try:
                reader, writer = await negotiated_v2_connection(sock)
                sub = [protocol.BULK_ADMIT, "g1", "voice", "r0", "r3", None]
                writer.write(protocol.encode_bulk_request(1, [sub]))
                await writer.drain()
                header = await reader.readexactly(
                    protocol.FRAME_HEADER_BYTES
                )
                await reader.readexactly(int.from_bytes(header, "big"))
                writer.close()  # flow g1 stays admitted server-side
                await assert_still_serving(sock)
                assert service.controller.is_established("g1")
            finally:
                await service.stop()

        run(scenario())


class TestInSyncFaults(FrontDoorCases):
    """Well-delimited but malformed payloads: error, keep connection."""

    def fault_then_recover(self, tmp_path, payload, expect_code):
        async def scenario():
            service, sock = await self.start(tmp_path)
            try:
                reader, writer = await negotiated_v2_connection(sock)
                writer.write(
                    len(payload).to_bytes(4, "big") + payload
                )
                await writer.drain()
                err = await read_v2_error(reader)
                assert err["code"] == expect_code
                # Same connection still works afterwards.
                sub = [protocol.BULK_ADMIT, "k1", "voice", "r0", "r3", None]
                writer.write(protocol.encode_bulk_request(2, [sub]))
                await writer.drain()
                header = await reader.readexactly(
                    protocol.FRAME_HEADER_BYTES
                )
                body = await reader.readexactly(
                    int.from_bytes(header, "big")
                )
                tag, obj = protocol.decode_payload_v2(body)
                assert tag == protocol.TAG_RESULTS
                assert obj[0] == 2
                assert obj[1][0][0] == protocol.SLOT_ADMITTED
            finally:
                await service.stop()

        run(scenario())

    def test_unknown_tag(self, tmp_path):
        self.fault_then_recover(tmp_path, b"\x00{}", protocol.BAD_REQUEST)

    def test_malformed_json_body(self, tmp_path):
        self.fault_then_recover(
            tmp_path, b"J{truncated", protocol.BAD_REQUEST
        )

    def test_results_tag_from_client(self, tmp_path):
        self.fault_then_recover(
            tmp_path, b"R[1,[[2]]]", protocol.BAD_REQUEST
        )

    def test_carrier_non_object(self, tmp_path):
        self.fault_then_recover(tmp_path, b"J[1,2]", protocol.BAD_REQUEST)

    def test_bulk_bad_shape(self, tmp_path):
        self.fault_then_recover(tmp_path, b"B{}", protocol.BAD_REQUEST)

    def test_bulk_bad_subop_arity(self, tmp_path):
        # Decodes fine; the sub-op validator rejects per-slot, so the
        # response is a RESULTS frame whose slot carries the error.
        async def scenario():
            service, sock = await self.start(tmp_path)
            try:
                reader, writer = await negotiated_v2_connection(sock)
                writer.write(
                    protocol.encode_bulk_request(5, [[protocol.BULK_ADMIT]])
                )
                await writer.drain()
                header = await reader.readexactly(
                    protocol.FRAME_HEADER_BYTES
                )
                body = await reader.readexactly(
                    int.from_bytes(header, "big")
                )
                tag, obj = protocol.decode_payload_v2(body)
                assert tag == protocol.TAG_RESULTS
                slot = obj[1][0]
                assert slot[0] == protocol.SLOT_ERROR
                assert slot[1] == protocol.BAD_REQUEST
            finally:
                await service.stop()

        run(scenario())


class TestRandomFuzz(FrontDoorCases):
    def test_random_garbage_never_wedges_the_service(self, tmp_path):
        """200 random byte blobs across fresh v2 connections."""
        rng = random.Random(0xF022)

        async def scenario():
            service, sock = await self.start(tmp_path)
            try:
                for trial in range(200):
                    blob = bytes(
                        rng.randrange(256)
                        for _ in range(rng.randrange(1, 40))
                    )
                    reader, writer = await negotiated_v2_connection(sock)
                    writer.write(blob)
                    if rng.random() < 0.5:
                        writer.write_eof()
                    await writer.drain()
                    # Read whatever the server answers (possibly
                    # nothing) until it closes or stops talking.
                    try:
                        await asyncio.wait_for(reader.read(4096), 0.05)
                    except asyncio.TimeoutError:
                        pass
                    writer.close()
                await assert_still_serving(sock)
            finally:
                await service.stop()

        run(scenario())

    def test_random_tagged_frames_with_valid_prefixes(self, tmp_path):
        """Well-delimited random bodies: always a structured answer."""
        rng = random.Random(2468)

        async def scenario():
            service, sock = await self.start(tmp_path)
            try:
                reader, writer = await negotiated_v2_connection(sock)
                for trial in range(100):
                    tag = rng.choice([b"J", b"B", b"R", b"\x07"])
                    body = bytes(
                        rng.randrange(32, 127)
                        for _ in range(rng.randrange(0, 30))
                    )
                    payload = tag + body
                    writer.write(
                        len(payload).to_bytes(4, "big") + payload
                    )
                    await writer.drain()
                    header = await asyncio.wait_for(
                        reader.readexactly(protocol.FRAME_HEADER_BYTES),
                        10,
                    )
                    answer = await asyncio.wait_for(
                        reader.readexactly(
                            int.from_bytes(header, "big")
                        ),
                        10,
                    )
                    # Every answer is itself a decodable v2 frame.
                    protocol.decode_payload_v2(answer)
                await assert_still_serving(sock)
            finally:
                await service.stop()

        run(scenario())


class TestMalformedPrefixesRouter(TestMalformedPrefixes):
    door = "router"


class TestTruncationAndDisconnectsRouter(TestTruncationAndDisconnects):
    door = "router"


class TestInSyncFaultsRouter(TestInSyncFaults):
    door = "router"


class TestRandomFuzzRouter(TestRandomFuzz):
    door = "router"


def frame(payload):
    return len(payload).to_bytes(4, "big") + payload


#: Faults the connection layer answers itself (never the handler behind
#: it), as ``(name, bytes sent after the v2 upgrade)``.
LAYER_FAULTS = [
    ("oversized prefix", (1 << 24).to_bytes(4, "big") + b"J{}"),
    ("zero length", b"\x00\x00\x00\x00"),
    ("v1 line on v2", protocol.encode_frame({"id": 1, "op": "stats"})),
    ("R frame from a client", frame(b"R[1,[[2]]]")),
    ("unknown tag", frame(b"\x07{}")),
    ("bad id type", frame(b'J{"id":[1],"op":"stats"}')),
    ("bool id", frame(b'J{"id":true,"op":"stats"}')),
    ("bad op type", frame(b'J{"id":1,"op":7}')),
    ("bulk bad shape", frame(b"B{}")),
    ("hello in a carrier", frame(b"J" + HELLO_V2.strip())),
]


def test_server_and_router_answer_layer_faults_identically(tmp_path):
    """Same bytes, same error object — code *and* message — whichever
    front door they hit."""

    async def answers(start):
        service, sock = await start(tmp_path)
        out = {}
        try:
            for name, data in LAYER_FAULTS:
                reader, writer = await negotiated_v2_connection(sock)
                writer.write(data)
                await writer.drain()
                out[name] = await read_v2_error(reader)
                writer.close()
            # v1-side faults: an over-limit line is answered then
            # closed; a late hello is refused and the line stays v1.
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b'{"id":1,"op":"health"}\n')
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            writer.write(HELLO_V2)
            await writer.drain()
            out["late hello"] = json.loads(await reader.readline())
            writer.write(b"x" * (protocol.MAX_FRAME_BYTES + 10) + b"\n")
            await writer.drain()
            out["over-limit line"] = json.loads(await reader.readline())
            assert await reader.read() == b""
            writer.close()
            service.controller.verify_invariants()
        finally:
            await service.stop()
        return out

    server = asyncio.run(answers(start_service))
    routed = asyncio.run(answers(start_router))
    assert server == routed
    assert all(a for a in server.values())
