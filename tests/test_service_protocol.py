"""Unit tests for the admission-service wire protocol."""

import json

import pytest

from repro.errors import ProtocolError, ReproError, ServiceError
from repro.service import protocol
from repro.traffic.flows import FlowSpec


class TestFraming:
    def test_encode_is_canonical_one_line(self):
        frame = protocol.encode_frame({"b": 1, "a": {"y": 2, "x": 3}})
        assert frame == b'{"a":{"x":3,"y":2},"b":1}\n'

    def test_encode_decode_roundtrip(self):
        obj = {"id": 7, "op": "admit", "flow": {"id": "f1"}}
        assert protocol.decode_frame(protocol.encode_frame(obj)) == obj

    def test_decode_rejects_malformed_json(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_frame(b"{nope")
        assert err.value.code == protocol.BAD_REQUEST

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_frame(b"[1,2,3]")
        assert err.value.code == protocol.BAD_REQUEST

    def test_decode_rejects_oversized_frame(self):
        line = b'{"id":1,"op":"x","pad":"' + b"a" * 64 + b'"}'
        with pytest.raises(ProtocolError) as err:
            protocol.decode_frame(line, max_bytes=32)
        assert err.value.code == protocol.FRAME_TOO_LARGE

    def test_protocol_error_is_a_repro_error(self):
        exc = ProtocolError(protocol.BAD_REQUEST, "x")
        assert isinstance(exc, ServiceError)
        assert isinstance(exc, ReproError)
        assert exc.code == protocol.BAD_REQUEST


class TestParseRequest:
    def test_parses_id_op_and_body(self):
        req = protocol.parse_request(
            b'{"id":"r1","op":"release","flow_id":"f9"}'
        )
        assert req.id == "r1"
        assert req.op == "release"
        assert req.body == {"flow_id": "f9"}

    def test_integer_ids_allowed(self):
        assert protocol.parse_request(b'{"id":12,"op":"health"}').id == 12

    @pytest.mark.parametrize(
        "frame",
        [
            b'{"op":"health"}',  # missing id
            b'{"id":null,"op":"health"}',
            b'{"id":true,"op":"health"}',
            b'{"id":1.5,"op":"health"}',
            b'{"id":[1],"op":"health"}',
        ],
    )
    def test_rejects_bad_ids(self, frame):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request(frame)
        assert err.value.code == protocol.BAD_REQUEST

    def test_rejects_missing_or_non_string_op(self):
        for frame in (b'{"id":1}', b'{"id":1,"op":7}'):
            with pytest.raises(ProtocolError):
                protocol.parse_request(frame)


class TestFlowConversion:
    def test_roundtrip_without_route(self):
        flow = FlowSpec("f1", "voice", "r0", "r3")
        again = protocol.flow_from_obj(protocol.flow_to_obj(flow))
        assert again == flow

    def test_roundtrip_with_route(self):
        flow = FlowSpec(
            "f1", "voice", "r0", "r3", route=("r0", "r1", "r2", "r3")
        )
        obj = protocol.flow_to_obj(flow)
        assert obj["route"] == ["r0", "r1", "r2", "r3"]
        assert protocol.flow_from_obj(obj) == flow

    def test_wire_objects_are_json_safe(self):
        obj = protocol.flow_to_obj(FlowSpec(3, "voice", "a", "b"))
        assert json.loads(json.dumps(obj)) == obj

    @pytest.mark.parametrize(
        "obj",
        [
            None,
            "flow",
            {"id": "f", "cls": "voice", "src": "a"},  # missing dst
            {"id": "f", "cls": 7, "src": "a", "dst": "b"},
            {"id": "f", "cls": "v", "src": "a", "dst": "b", "route": "ab"},
            {"id": "f", "cls": "v", "src": "a", "dst": "b", "route": ["a"]},
            {"id": [1], "cls": "v", "src": "a", "dst": "b"},
            {"id": None, "cls": "v", "src": "a", "dst": "b"},
            {"id": True, "cls": "v", "src": "a", "dst": "b"},
            {"id": 1.5, "cls": "v", "src": "a", "dst": "b"},
        ],
    )
    def test_rejects_malformed_flow_objects(self, obj):
        with pytest.raises(ProtocolError) as err:
            protocol.flow_from_obj(obj)
        assert err.value.code == protocol.BAD_REQUEST

    def test_bad_flow_values_become_protocol_errors(self):
        # source == destination raises TrafficError in FlowSpec; the
        # protocol layer maps it onto bad_request.
        with pytest.raises(ProtocolError):
            protocol.flow_from_obj(
                {"id": "f", "cls": "v", "src": "a", "dst": "a"}
            )


class TestFlowIdValidation:
    @pytest.mark.parametrize("value", ["f1", "", 0, -3, 10**12])
    def test_accepts_string_and_integer_ids(self, value):
        assert protocol.validate_flow_id(value) == value

    @pytest.mark.parametrize(
        "value", [None, True, False, 1.5, ["x"], {"a": 1}]
    )
    def test_rejects_everything_else(self, value):
        with pytest.raises(ProtocolError) as err:
            protocol.validate_flow_id(value)
        assert err.value.code == protocol.BAD_REQUEST


class TestResponses:
    def test_ok_response_shape(self):
        assert protocol.ok_response(4, {"admitted": True}) == {
            "id": 4,
            "ok": True,
            "result": {"admitted": True},
        }

    def test_error_response_shape(self):
        resp = protocol.error_response(None, protocol.UNKNOWN_OP, "nope")
        assert resp == {
            "id": None,
            "ok": False,
            "error": {"code": "unknown_op", "message": "nope"},
        }

    def test_error_codes_are_unique(self):
        codes = [
            protocol.BAD_REQUEST, protocol.UNKNOWN_OP, protocol.DUPLICATE_ID,
            protocol.FRAME_TOO_LARGE, protocol.OVERLOADED,
            protocol.ADMISSION_ERROR, protocol.UNAVAILABLE, protocol.INTERNAL,
        ]
        assert len(set(codes)) == len(codes)

    def test_ops_cover_the_documented_surface(self):
        assert set(protocol.OPS) == {
            "admit",
            "release",
            "batch",
            "query",
            "snapshot",
            "stats",
            "health",
        }


class TestJsonBackendSeam:
    """The orjson fast path is a drop-in behind one encode/decode seam."""

    def test_backend_is_advertised(self):
        assert protocol.JSON_BACKEND in ("orjson", "json")

    def test_canonical_form_is_backend_independent(self):
        # Sorted keys, no whitespace, one trailing newline — whichever
        # backend is active must produce the identical canonical bytes
        # for plain JSON-native payloads.
        import json as stdlib_json

        objs = [
            {"b": 1, "a": {"y": 2, "x": 3}},
            {"id": 1, "op": "admit", "flow": {"id": "f1", "cls": "voice"}},
            {"id": None, "ok": False, "error": {"code": "internal"}},
            {"n": [1, 2.5, -3], "s": "text", "t": True, "z": None},
        ]
        for obj in objs:
            frame = protocol.encode_frame(obj)
            assert frame.endswith(b"\n")
            assert stdlib_json.loads(frame) == obj
            canonical = stdlib_json.dumps(
                obj, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            # orjson emits raw UTF-8 rather than \u-escapes; for the
            # ASCII payloads above the bytes must match exactly.
            assert frame == canonical + b"\n"

    def test_non_ascii_round_trips(self):
        obj = {"id": "flöw-é", "op": "query", "flow_id": "号"}
        assert protocol.decode_frame(protocol.encode_frame(obj)) == obj

    def test_tuple_values_fall_back_to_the_stdlib_encoder(self):
        # orjson cannot serialize tuples; the seam must transparently
        # fall back instead of leaking a TypeError to the server loop.
        frame = protocol.encode_frame({"route": ("a", "b"), "id": 1})
        assert frame == b'{"id":1,"route":["a","b"]}\n'

    def test_decode_errors_stay_protocol_errors(self):
        for bad in (b"{nope", b"\xff\xfe", b"", b"nan"):
            with pytest.raises(ProtocolError) as err:
                protocol.decode_frame(bad)
            assert err.value.code == protocol.BAD_REQUEST
