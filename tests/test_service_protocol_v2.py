"""v2 binary framing codec: round-trips, shape errors, packed flows."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service import protocol as wire
from repro.traffic.flows import (
    PRIORITIES,
    FlowSpec,
    flow_from_record,
    flow_record,
)


def payload_of(frame: bytes) -> bytes:
    """Strip and check the length prefix of one encoded v2 frame."""
    assert len(frame) >= wire.FRAME_HEADER_BYTES
    length = int.from_bytes(frame[: wire.FRAME_HEADER_BYTES], "big")
    payload = frame[wire.FRAME_HEADER_BYTES :]
    assert len(payload) == length
    return payload


class TestFrameCodec:
    def test_json_carrier_round_trip(self):
        obj = {"id": 7, "op": "stats"}
        tag, decoded = wire.decode_payload_v2(
            payload_of(wire.encode_frame_v2(obj))
        )
        assert tag == wire.TAG_JSON
        assert decoded == obj

    def test_bulk_request_round_trip(self):
        subops = [
            [wire.BULK_ADMIT, "f1", "voice", "A", "B", None],
            [wire.BULK_ADMIT, 9, "voice", "A", "C", ["A", "B", "C"]],
            [wire.BULK_RELEASE, "f1"],
        ]
        tag, obj = wire.decode_payload_v2(
            payload_of(wire.encode_bulk_request("r-1", subops))
        )
        assert tag == wire.TAG_BULK
        rid, decoded = wire.parse_bulk_request(obj)
        assert rid == "r-1"
        assert decoded == subops

    def test_bulk_response_round_trip(self):
        slots = [
            [wire.SLOT_ADMITTED, "", 64],
            [wire.SLOT_REJECTED, "utilization bound", 64],
            [wire.SLOT_RELEASED],
            [wire.SLOT_ERROR, wire.ADMISSION_ERROR, "already established"],
        ]
        tag, obj = wire.decode_payload_v2(
            payload_of(wire.encode_bulk_response(3, slots))
        )
        assert tag == wire.TAG_RESULTS
        assert obj == [3, slots]

    def test_header_is_big_endian_u32(self):
        frame = wire.encode_frame_v2({"id": 1, "op": "health"})
        assert frame[: wire.FRAME_HEADER_BYTES] == len(
            frame[wire.FRAME_HEADER_BYTES :]
        ).to_bytes(4, "big")

    def test_tag_bytes_are_the_documented_ascii_letters(self):
        assert wire.TAG_JSON == ord("J")
        assert wire.TAG_BULK == ord("B")
        assert wire.TAG_RESULTS == ord("R")


class TestDecodeErrors:
    def err(self, payload: bytes, **kw) -> ProtocolError:
        with pytest.raises(ProtocolError) as exc_info:
            wire.decode_payload_v2(payload, **kw)
        return exc_info.value

    def test_empty_payload(self):
        assert self.err(b"").code == wire.BAD_REQUEST

    def test_unknown_tag(self):
        err = self.err(b"\x00{}")
        assert err.code == wire.BAD_REQUEST
        assert "unknown v2 frame tag 0x00" in str(err)

    def test_oversized_payload(self):
        err = self.err(b"J" + b"x" * 64, max_bytes=32)
        assert err.code == wire.FRAME_TOO_LARGE

    def test_malformed_json_body(self):
        assert self.err(b"J{nope").code == wire.BAD_REQUEST

    def test_carrier_must_hold_an_object(self):
        err = self.err(b"J[1,2]")
        assert "must hold a JSON object" in str(err)

    def test_bulk_body_shape(self):
        for body in (b"{}", b"[1]", b"[1,2,3]", b'[1,"x"]'):
            err = self.err(b"B" + body)
            assert err.code == wire.BAD_REQUEST

    def test_bulk_request_id_type(self):
        for rid in ("null", "true", "[1]", "1.5"):
            err = self.err(b"B[" + rid.encode() + b",[]]")
            assert "request id" in str(err)


class TestBulkAdmitFlow:
    def test_route_less_fast_path_builds_real_flowspec(self):
        flow = wire.bulk_admit_flow(
            [wire.BULK_ADMIT, "f1", "voice", "A", "B", None]
        )
        assert isinstance(flow, FlowSpec)
        assert (flow.flow_id, flow.class_name) == ("f1", "voice")
        assert (flow.source, flow.destination) == ("A", "B")
        assert flow.route is None
        # The fast path must be indistinguishable from the constructor.
        via_init = FlowSpec("f1", "voice", "A", "B", None)
        assert flow == via_init

    def test_pinned_route_goes_through_the_constructor(self):
        flow = wire.bulk_admit_flow(
            [wire.BULK_ADMIT, "f2", "voice", "A", "C", ["A", "B", "C"]]
        )
        assert flow.route == ("A", "B", "C")

    def test_wrong_arity(self):
        with pytest.raises(ProtocolError, match="6 or 7 fields, got 2"):
            wire.bulk_admit_flow([wire.BULK_ADMIT, "f1"])

    def test_flow_id_must_be_scalar(self):
        for fid in (None, True, 1.5, ["x"]):
            with pytest.raises(
                ProtocolError, match="flow id must be a string or integer"
            ):
                wire.bulk_admit_flow(
                    [wire.BULK_ADMIT, fid, "voice", "A", "B", None]
                )

    def test_cls_must_be_string(self):
        with pytest.raises(ProtocolError, match="cls must be a string"):
            wire.bulk_admit_flow([wire.BULK_ADMIT, "f1", 3, "A", "B", None])

    def test_source_equals_destination_matches_constructor_message(self):
        with pytest.raises(ProtocolError) as exc_info:
            wire.bulk_admit_flow(
                [wire.BULK_ADMIT, "f1", "voice", "A", "A", None]
            )
        with pytest.raises(Exception) as ctor_info:
            FlowSpec("f1", "voice", "A", "A", None)
        # The fast path replicates the constructor's message verbatim.
        assert str(ctor_info.value) in str(exc_info.value)

    def test_short_route_rejected(self):
        with pytest.raises(ProtocolError, match=">= 2 routers"):
            wire.bulk_admit_flow(
                [wire.BULK_ADMIT, "f1", "voice", "A", "B", ["A"]]
            )

    def test_bad_pinned_route_wrapped_as_protocol_error(self):
        # Route endpoints must match src/dst: the constructor raises
        # TrafficError, surfaced as a bad_request ProtocolError.
        with pytest.raises(ProtocolError) as exc_info:
            wire.bulk_admit_flow(
                [wire.BULK_ADMIT, "f1", "voice", "A", "B", ["C", "B"]]
            )
        assert exc_info.value.code == wire.BAD_REQUEST


class TestPackUnpack:
    def test_pack_batch_ops_positional_form(self):
        ops = [
            {"op": "admit", "flow": {"id": "f1", "cls": "voice",
                                     "src": "A", "dst": "B"}},
            {"op": "admit", "flow": {"id": "f2", "cls": "voice",
                                     "src": "A", "dst": "C",
                                     "route": ["A", "B", "C"]}},
            {"op": "release", "flow_id": "f1"},
        ]
        assert wire.pack_batch_ops(ops) == [
            [wire.BULK_ADMIT, "f1", "voice", "A", "B", None],
            [wire.BULK_ADMIT, "f2", "voice", "A", "C", ["A", "B", "C"]],
            [wire.BULK_RELEASE, "f1"],
        ]

    def test_pack_batch_ops_refuses_exotic_entries(self):
        # Anything off the packed shapes falls back to the carrier
        # path, so v1 validation semantics stay untouched.
        assert wire.pack_batch_ops([{"op": "query", "flow_id": "f"}]) is None
        assert wire.pack_batch_ops([{"op": "admit"}]) is None
        assert wire.pack_batch_ops(["nope"]) is None
        assert wire.pack_batch_ops(
            [{"op": "admit",
              "flow": {"id": "f", "cls": "v", "src": "A", "dst": "B",
                       "extra": 1}}]
        ) is None
        assert wire.pack_batch_ops(
            [{"op": "release", "flow_id": "f", "trace": {}}]
        ) is None

    def test_pack_unpack_results_inverse(self):
        results = [
            {"ok": True, "result": {"admitted": True, "reason": "",
                                    "batch_size": 7}},
            {"ok": True, "result": {"admitted": False,
                                    "reason": "no route", "batch_size": 7}},
            {"ok": True, "result": {"released": True}},
            {"ok": False, "error": {"code": wire.ADMISSION_ERROR,
                                    "message": "duplicate"}},
        ]
        assert wire.unpack_bulk_results(
            wire.pack_bulk_results(results)
        ) == results

    def test_unpack_rejects_malformed_slots(self):
        for slots in ([["x"]], [[0, ""]], [[2, "extra"]], [[9]], [[]],
                      ["flat"]):
            with pytest.raises(ProtocolError):
                wire.unpack_bulk_results(slots)

    def test_unpack_batch_op_rejects_what_the_server_rejects(self):
        for sub in ("flat", [], [7, "f"], [wire.BULK_RELEASE, "f", "x"],
                    [wire.BULK_RELEASE, ["f"]], [wire.BULK_ADMIT, "f"]):
            with pytest.raises(ProtocolError) as exc_info:
                wire.unpack_batch_op(sub)
            assert exc_info.value.code == wire.BAD_REQUEST


_flow_ids = st.one_of(st.text(min_size=1, max_size=6), st.integers())
_packed_admit = st.builds(
    lambda fid, route, pri: [wire.BULK_ADMIT, fid, "voice", "A", "C", route]
    + ([] if pri is None else [pri]),
    _flow_ids,
    st.sampled_from([None, ["A", "C"], ["A", "B", "C"]]),
    st.sampled_from([None, *PRIORITIES]),
)
_packed_release = st.builds(lambda fid: [wire.BULK_RELEASE, fid], _flow_ids)


@given(st.lists(st.one_of(_packed_admit, _packed_release), max_size=12))
def test_unpack_batch_op_inverts_pack_batch_ops(subops):
    """Route and priority survive packed -> v1 op -> packed: the hop a
    bulk frame takes through the cluster router."""
    ops = [wire.unpack_batch_op(sub) for sub in subops]
    assert wire.pack_batch_ops(ops) == subops


_flows = st.builds(
    FlowSpec,
    _flow_ids,
    st.just("voice"),
    st.just("A"),
    st.just("C"),
    st.sampled_from([None, ("A", "C"), ("A", "B", "C")]),
    st.sampled_from([None, *PRIORITIES]),
)


@given(_flows, st.sampled_from([None, ("A", "C"), ("A", "D", "C")]))
def test_flow_record_and_short_form_round_trip(flow, route):
    """One writer and one reader per form: the snapshot record (on the
    route it is written with) and the wire/audit/trace object both give
    back the flow, priority included, through JSON."""
    record = json.loads(json.dumps(flow_record(flow, route)))
    assert flow_from_record(record) == replace(flow, route=route)
    assert ("priority" in record) == (flow.priority is not None)
    obj = json.loads(json.dumps(flow.to_obj()))
    assert wire.flow_from_obj(obj) == flow
    assert wire.flow_to_obj(flow) == flow.to_obj()
