"""Wire protocol of the admission service (``repro-admission-rpc/v1``).

Newline-delimited JSON over a stream transport (TCP or a Unix socket):
one request object per line, one response object per line.  Frames are
canonically serialized — sorted keys, no whitespace — and UTF-8 encoded.

Requests carry a client-chosen ``id`` (string or integer, unique among
the connection's in-flight requests) and an ``op``::

    {"id":1,"op":"admit","flow":{"id":"f1","cls":"voice","src":"A","dst":"B"}}
    {"id":2,"op":"release","flow_id":"f1"}
    {"id":3,"op":"batch","ops":[{"op":"admit","flow":{...}}, ...]}
    {"id":4,"op":"query","flow_id":"f1"}
    {"id":5,"op":"stats"}
    {"id":6,"op":"health"}
    {"id":7,"op":"snapshot"}

Responses echo the request id and carry either a ``result`` object or a
structured ``error`` with a machine-readable ``code``::

    {"id":1,"ok":true,"result":{"admitted":true,"batch_size":64,"reason":""}}
    {"id":2,"ok":false,"error":{"code":"admission_error","message":"..."}}

A frame the server cannot attribute to a request (malformed JSON, or an
oversized line) is answered with ``"id": null``.  Error codes are the
module's ``BAD_REQUEST`` … ``INTERNAL`` constants; everything else about a failure lives in
the human-readable ``message``.

Requests may additionally carry an optional ``trace`` object (W3C
traceparent-style ids, see :mod:`repro.obs.trace`)::

    {"id":1,"op":"admit","flow":{...},
     "trace":{"trace_id":"<32 hex>","parent_id":"<16 hex>"}}

The schema stays ``repro-admission-rpc/v1``: the field rides in the
request body like any other key, servers without tracing simply ignore
it, and a malformed ``trace`` never fails the request (it is dropped,
not rejected).  Tracing-aware servers open a per-request span parented
on ``parent_id`` so client and server telemetry join on the ids.

**Binary framing (v2).**  ``repro-admission-rpc/v2`` replaces newline
delimiting with length-prefixed binary frames, negotiated per
connection *before the first request id is assigned*::

    frame   := length:u32_be || payload          (length = len(payload))
    payload := tag:u8 || body

Tags (see :data:`TAG_JSON` / :data:`TAG_BULK` / :data:`TAG_RESULTS`):

``J`` (0x4A)
    JSON carrier: ``body`` is one canonical JSON object with exactly
    the v1 line shape (request or response, no trailing newline).
    Every v1 op travels unchanged inside carrier frames.
``B`` (0x42)
    Packed bulk request: ``body`` is canonical JSON
    ``[id, [subop, ...]]`` where ``subop`` is positional —
    ``[0, fid, cls, src, dst, route|null]`` for admit (an optional
    seventh field carries the flow priority),
    ``[1, fid]`` for release.  Decoded straight into flow specs and
    decided as one coalesced unit (the fast path).
``R`` (0x52)
    Packed bulk response: ``body`` is ``[id, [slot, ...]]`` with one
    slot per sub-op — ``[0, reason, batch_size]`` admitted,
    ``[1, reason, batch_size]`` rejected, ``[2]`` released,
    ``[3, code, message]`` error.

Negotiation: the client's first frame is a v1 ``hello`` line carrying
the reserved request id 0 (ordinary ids start at 1) and the proposed
schema; a v2-aware server answers ok and both sides switch to binary
frames immediately after that response line; an old server answers
``unknown_op`` and the connection transparently stays on v1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import ProtocolError
from ..traffic.flows import PRIORITIES, FlowSpec

try:  # pragma: no cover - exercised only where orjson is installed
    import orjson as _orjson
except ImportError:  # pragma: no cover
    _orjson = None  # type: ignore[assignment]

__all__ = [
    "JSON_BACKEND",
    "PROTOCOL_SCHEMA",
    "PROTOCOL_SCHEMA_V2",
    "HELLO_OP",
    "HELLO_ID",
    "FRAME_HEADER_BYTES",
    "TAG_JSON",
    "TAG_BULK",
    "TAG_RESULTS",
    "MAX_FRAME_BYTES",
    "OPS",
    "BAD_REQUEST",
    "UNKNOWN_OP",
    "DUPLICATE_ID",
    "FRAME_TOO_LARGE",
    "OVERLOADED",
    "ADMISSION_ERROR",
    "UNAVAILABLE",
    "INTERNAL",
    "Request",
    "encode_json",
    "encode_frame",
    "decode_frame",
    "parse_request",
    "request_from_obj",
    "flow_to_obj",
    "flow_from_obj",
    "validate_flow_id",
    "ok_response",
    "error_response",
    "encode_frame_v2",
    "encode_bulk_request",
    "encode_bulk_response",
    "decode_payload_v2",
    "parse_bulk_request",
    "bulk_admit_flow",
    "decode_bulk_subop",
    "decode_batch_subop",
    "pack_batch_ops",
    "pack_bulk_results",
    "unpack_bulk_results",
]

PROTOCOL_SCHEMA = "repro-admission-rpc/v1"
PROTOCOL_SCHEMA_V2 = "repro-admission-rpc/v2"

#: Negotiation op name and the request id reserved for it.  Clients
#: assign ordinary request ids starting at 1, so the hello exchange
#: happens strictly before the first request id exists.
HELLO_OP = "hello"
HELLO_ID = 0

#: v2 frame header: one u32 big-endian payload length.
FRAME_HEADER_BYTES = 4

#: v2 payload tags (first payload byte).
TAG_JSON = 0x4A  # 'J': JSON carrier (v1 object shape)
TAG_BULK = 0x42  # 'B': packed bulk request
TAG_RESULTS = 0x52  # 'R': packed bulk response

#: Default per-frame size ceiling (1 MiB); both ends enforce it.
MAX_FRAME_BYTES = 1 << 20

#: Operations understood by the server.
OPS = ("admit", "release", "batch", "query", "snapshot", "stats", "health")

BAD_REQUEST = "bad_request"
UNKNOWN_OP = "unknown_op"
DUPLICATE_ID = "duplicate_id"
FRAME_TOO_LARGE = "frame_too_large"
OVERLOADED = "overloaded"
ADMISSION_ERROR = "admission_error"
UNAVAILABLE = "unavailable"
INTERNAL = "internal"

RequestId = Union[str, int]
FlowId = Union[str, int]


def validate_flow_id(value: Any, *, what: str = "flow_id") -> FlowId:
    """Validated wire flow id: a string or an integer.

    JSON permits any type in a ``flow_id`` slot, but only hashable
    scalar ids may reach the controller's ledger (an unhashable id
    would raise ``TypeError`` deep inside the coalescer's batch step).
    """
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise ProtocolError(
            BAD_REQUEST,
            f"{what} must be a string or integer, "
            f"got {type(value).__name__}",
        )
    return value


@dataclass(frozen=True)
class Request:
    """One parsed request frame."""

    id: RequestId
    op: str
    body: Dict[str, Any]


def _dumps_std(obj: Any) -> bytes:
    """Stdlib canonical encoding (sorted keys, no whitespace)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


if _orjson is not None:
    #: Name of the active JSON backend ("orjson" or "json").
    JSON_BACKEND = "orjson"

    def encode_json(obj: Any) -> bytes:
        """Canonical JSON bytes of ``obj`` (sorted keys, no
        whitespace): the one encoder of wire frames and audit lines."""
        # orjson is 3-10x faster on the small frames this protocol
        # ships; its JSONEncodeError is a TypeError subclass, so the
        # rare object it cannot serialize (tuples, exotic key types)
        # transparently falls back to the stdlib encoder instead of
        # changing the seam's contract.
        try:
            return _orjson.dumps(obj, option=_orjson.OPT_SORT_KEYS)
        except TypeError:
            return _dumps_std(obj)

    _loads = _orjson.loads
else:
    JSON_BACKEND = "json"
    encode_json = _dumps_std
    _loads = json.loads


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Canonical one-line JSON encoding of a frame (trailing newline).

    Both the server and the client encode through this single seam;
    when :mod:`orjson` is importable it is used automatically
    (``JSON_BACKEND == "orjson"``), with a per-object stdlib fallback,
    so installing the optional dependency speeds up every frame on the
    wire without any configuration.
    """
    return encode_json(obj) + b"\n"


def decode_frame(
    line: Union[str, bytes], *, max_bytes: int = MAX_FRAME_BYTES
) -> Dict[str, Any]:
    """Parse one frame line into an object.

    Raises :class:`ProtocolError` (``frame_too_large`` / ``bad_request``)
    on oversized input, invalid JSON, or a non-object frame.
    """
    if len(line) > max_bytes:
        raise ProtocolError(
            FRAME_TOO_LARGE,
            f"frame of {len(line)} bytes exceeds the "
            f"{max_bytes}-byte limit",
        )
    try:
        obj = _loads(line)
    except ValueError as exc:
        # Covers json.JSONDecodeError, orjson.JSONDecodeError and
        # UnicodeDecodeError — all ValueError subclasses.
        raise ProtocolError(
            BAD_REQUEST, f"malformed JSON frame: {exc}"
        ) from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            BAD_REQUEST,
            f"frame must be a JSON object, got {type(obj).__name__}",
        )
    return obj


def parse_request(
    line: Union[str, bytes], *, max_bytes: int = MAX_FRAME_BYTES
) -> Request:
    """Parse and validate one request frame.

    ``op`` validity (known operation name) is checked here; op-specific
    body fields are validated by the server so the error can carry the
    request id.
    """
    return request_from_obj(decode_frame(line, max_bytes=max_bytes))


def request_from_obj(obj: Dict[str, Any]) -> Request:
    """Shape-check one decoded request object (a v1 line or the body of
    a v2 carrier frame)."""
    rid = obj.get("id")
    if not isinstance(rid, (str, int)) or isinstance(rid, bool):
        raise ProtocolError(
            BAD_REQUEST,
            "request id must be a string or integer",
        )
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError(BAD_REQUEST, "request op must be a string")
    body = {k: v for k, v in obj.items() if k not in ("id", "op")}
    return Request(id=rid, op=op, body=body)


#: Wire form of a flow request: the short-key idiom, written in one place.
flow_to_obj = FlowSpec.to_obj


def flow_from_obj(obj: Any) -> FlowSpec:
    """Validated :class:`FlowSpec` from a wire flow object: the packed
    admit sub-op's validator (:func:`bulk_admit_flow`) on its fields, so
    a flow is refused for the same fault in either form."""
    if not isinstance(obj, dict):
        raise ProtocolError(
            BAD_REQUEST,
            f"flow must be an object, got {type(obj).__name__}",
        )
    for key in ("id", "cls", "src", "dst"):
        if key not in obj:
            raise ProtocolError(
                BAD_REQUEST, f"flow object is missing {key!r}"
            )
    return bulk_admit_flow([
        BULK_ADMIT, obj["id"], obj["cls"], obj["src"], obj["dst"],
        obj.get("route"), obj.get("pri"),
    ])


def ok_response(
    rid: Optional[RequestId], result: Dict[str, Any]
) -> Dict[str, Any]:
    return {"id": rid, "ok": True, "result": result}


def error_response(
    rid: Optional[RequestId], code: str, message: str
) -> Dict[str, Any]:
    return {
        "id": rid,
        "ok": False,
        "error": {"code": code, "message": message},
    }


# ---------------------------------------------------------------------- #
# v2 binary framing
# ---------------------------------------------------------------------- #

#: Packed bulk sub-op kinds.
BULK_ADMIT = 0
BULK_RELEASE = 1

#: Packed bulk response slot kinds.
SLOT_ADMITTED = 0
SLOT_REJECTED = 1
SLOT_RELEASED = 2
SLOT_ERROR = 3


def _frame_v2(payload: bytes) -> bytes:
    return len(payload).to_bytes(FRAME_HEADER_BYTES, "big") + payload


def encode_frame_v2(obj: Dict[str, Any]) -> bytes:
    """One JSON-carrier v2 frame: header + tag ``J`` + canonical JSON."""
    return _frame_v2(b"\x4a" + encode_json(obj))


def encode_bulk_request(
    rid: RequestId, subops: list
) -> bytes:
    """One packed bulk request frame (tag ``B``).

    ``subops`` must already be positional:
    ``[0, fid, cls, src, dst, route|None[, pri]]`` or ``[1, fid]``.
    """
    return _frame_v2(b"\x42" + encode_json([rid, subops]))


def encode_bulk_response(rid: RequestId, slots: list) -> bytes:
    """One packed bulk response frame (tag ``R``)."""
    return _frame_v2(b"\x52" + encode_json([rid, slots]))


def decode_payload_v2(
    payload: bytes, *, max_bytes: int = MAX_FRAME_BYTES
) -> Tuple[int, Any]:
    """Parse one v2 payload into ``(tag, obj)``.

    For :data:`TAG_JSON`, ``obj`` is the carried object (a dict);
    for :data:`TAG_BULK` / :data:`TAG_RESULTS`, ``obj`` is the decoded
    ``[id, list]`` pair, shape-checked but with sub-entries left for
    the caller to validate.  Raises :class:`ProtocolError` on unknown
    tags, malformed JSON, or shape violations.
    """
    if len(payload) > max_bytes:
        raise ProtocolError(
            FRAME_TOO_LARGE,
            f"frame of {len(payload)} bytes exceeds the "
            f"{max_bytes}-byte limit",
        )
    if not payload:
        raise ProtocolError(BAD_REQUEST, "empty v2 frame payload")
    tag = payload[0]
    if tag not in (TAG_JSON, TAG_BULK, TAG_RESULTS):
        raise ProtocolError(
            BAD_REQUEST, f"unknown v2 frame tag 0x{tag:02x}"
        )
    try:
        obj = _loads(payload[1:])
    except ValueError as exc:
        raise ProtocolError(
            BAD_REQUEST, f"malformed v2 frame body: {exc}"
        ) from None
    if tag == TAG_JSON:
        if not isinstance(obj, dict):
            raise ProtocolError(
                BAD_REQUEST,
                "v2 carrier frame must hold a JSON object, "
                f"got {type(obj).__name__}",
            )
        return tag, obj
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or not isinstance(obj[1], list)
    ):
        raise ProtocolError(
            BAD_REQUEST,
            "v2 bulk frame body must be [id, [entries...]]",
        )
    rid = obj[0]
    if not isinstance(rid, (str, int)) or isinstance(rid, bool):
        raise ProtocolError(
            BAD_REQUEST, "request id must be a string or integer"
        )
    return tag, obj


def parse_bulk_request(obj: Any) -> Tuple[RequestId, list]:
    """``(rid, subops)`` of a decoded :data:`TAG_BULK` body."""
    return obj[0], obj[1]


_FLOW_NEW = FlowSpec.__new__
# The slot stores of the route-less fast path in ``bulk_admit_flow``,
# in field order.
_SET_ID, _SET_CLASS, _SET_SRC, _SET_DST, _SET_ROUTE, _SET_PRI = (
    getattr(FlowSpec, name).__set__ for name in FlowSpec.__slots__
)


def bulk_admit_flow(sub: list) -> FlowSpec:
    """Validated :class:`FlowSpec` from one packed admit sub-op.

    Six fields is the classic shape; a seventh (optional) field carries
    the flow priority, so priority-less frames stay byte-identical to
    pre-priority senders.
    """
    if len(sub) == 6:
        _, fid, cls, src, dst, route = sub
        pri = None
    elif len(sub) == 7:
        _, fid, cls, src, dst, route, pri = sub
    else:
        raise ProtocolError(
            BAD_REQUEST,
            f"packed admit sub-op must have 6 or 7 fields, "
            f"got {len(sub)}",
        )
    validate_flow_id(fid, what="flow id")
    if not isinstance(cls, str):
        raise ProtocolError(BAD_REQUEST, "flow cls must be a string")
    if route is not None and (not isinstance(route, list) or len(route) < 2):
        raise ProtocolError(
            BAD_REQUEST, "flow route must be a list of >= 2 routers"
        )
    if pri is not None and pri not in PRIORITIES:
        raise ProtocolError(
            BAD_REQUEST,
            f"flow pri must be one of {PRIORITIES}, got {pri!r}",
        )
    if route is None:
        # Hot path: a frozen dataclass pays ``object.__setattr__`` per
        # field in ``__init__``, so the common route-less flow is built
        # through its slot descriptors directly.  With no pinned route
        # the only ``__post_init__`` rule left is the
        # endpoint-distinctness check, replicated here with the
        # identical message.
        if src == dst:
            raise ProtocolError(
                BAD_REQUEST,
                f"flow {fid!r}: source equals destination ({src!r})",
            )
        flow = _FLOW_NEW(FlowSpec)
        _SET_ID(flow, fid)
        _SET_CLASS(flow, cls)
        _SET_SRC(flow, src)
        _SET_DST(flow, dst)
        _SET_ROUTE(flow, None)
        _SET_PRI(flow, pri)
        return flow
    try:
        return FlowSpec(fid, cls, src, dst, tuple(route), pri)
    except Exception as exc:  # TrafficError and friends: bad field values
        raise ProtocolError(BAD_REQUEST, str(exc)) from None


def decode_bulk_subop(sub: Any) -> Tuple[int, Any]:
    """``(kind, argument)`` of one packed bulk sub-op: a validated
    :class:`FlowSpec` for :data:`BULK_ADMIT`, a validated flow id for
    :data:`BULK_RELEASE`.

    The one place a packed sub-op is validated.  A cluster front door
    forwards packed sub-ops undecoded, so its workers refuse a
    malformed entry with the single server's bytes by construction.
    """
    if not isinstance(sub, list) or not sub:
        raise ProtocolError(
            BAD_REQUEST, "bulk sub-op must be a non-empty array"
        )
    kind = sub[0]
    if kind == BULK_ADMIT:
        return BULK_ADMIT, bulk_admit_flow(sub)
    if kind == BULK_RELEASE:
        if len(sub) != 2:
            raise ProtocolError(
                BAD_REQUEST, "packed release sub-op must have 2 fields"
            )
        return BULK_RELEASE, validate_flow_id(sub[1])
    raise ProtocolError(
        BAD_REQUEST,
        f"bulk sub-op kind must be {BULK_ADMIT} (admit) or "
        f"{BULK_RELEASE} (release), got {kind!r}",
    )


def decode_batch_subop(sub: Any) -> Tuple[int, Any]:
    """``(kind, argument)`` of one v1 ``batch`` sub-op object — the
    pair :func:`decode_bulk_subop` yields for its packed form, so a
    server decodes both frame generations to the same entries."""
    if not isinstance(sub, dict):
        raise ProtocolError(BAD_REQUEST, "batch sub-op must be an object")
    sub_op = sub.get("op")
    if sub_op == "admit":
        return BULK_ADMIT, flow_from_obj(sub.get("flow"))
    if sub_op == "release":
        if "flow_id" not in sub:
            raise ProtocolError(
                BAD_REQUEST, "release sub-op needs flow_id"
            )
        return BULK_RELEASE, validate_flow_id(sub["flow_id"])
    raise ProtocolError(
        BAD_REQUEST,
        f"batch sub-op must be admit or release, got {sub_op!r}",
    )


def pack_batch_ops(ops: list) -> Optional[list]:
    """Positional form of a v1 ``batch`` ops list, or None.

    Returns None when any sub-op does not fit the packed shapes (a
    malformed or exotic entry); callers then fall back to a carrier
    ``batch`` frame.  A packed entry decodes (:func:`decode_bulk_subop`)
    to what its v1 object decodes to (:func:`decode_batch_subop`),
    refusals included, so the packing never changes an answer.
    """
    packed: list = []
    for sub in ops:
        if not isinstance(sub, dict):
            return None
        sub_op = sub.get("op")
        if sub_op == "admit":
            flow = sub.get("flow")
            if (
                not isinstance(flow, dict)
                or len(sub) != 2
                or not {"id", "cls", "src", "dst"} <= flow.keys()
                or not flow.keys()
                <= {"id", "cls", "src", "dst", "route", "pri"}
            ):
                return None
            entry = [
                BULK_ADMIT,
                flow["id"],
                flow["cls"],
                flow["src"],
                flow["dst"],
                flow.get("route"),
            ]
            if flow.get("pri") is not None:
                # Priority rides as an optional 7th field so frames
                # without one stay byte-identical to pre-priority v2.
                entry.append(flow["pri"])
            packed.append(entry)
        elif sub_op == "release":
            if "flow_id" not in sub or len(sub) != 2:
                return None
            packed.append([BULK_RELEASE, sub["flow_id"]])
        else:
            return None
    return packed


def pack_bulk_results(results: list) -> list:
    """Packed response slots from v1-shaped per-sub-op result objects.

    Exact inverse of :func:`unpack_bulk_results`; the cluster front
    door uses it to merge a worker's answer to a carrier ``batch`` with
    the packed slots of every other worker.
    """
    slots: list = []
    for r in results:
        if r.get("ok"):
            res = r.get("result", {})
            if res.get("released"):
                slots.append([SLOT_RELEASED])
            elif res.get("admitted"):
                slots.append(
                    [
                        SLOT_ADMITTED,
                        res.get("reason", ""),
                        res.get("batch_size", 1),
                    ]
                )
            else:
                slots.append(
                    [
                        SLOT_REJECTED,
                        res.get("reason", ""),
                        res.get("batch_size", 1),
                    ]
                )
        else:
            err = r.get("error", {})
            slots.append(
                [
                    SLOT_ERROR,
                    err.get("code", INTERNAL),
                    err.get("message", ""),
                ]
            )
    return slots


def unpack_bulk_results(slots: list) -> list:
    """v1-shaped per-sub-op result objects from packed response slots.

    The output is exactly what a v1 ``batch`` response carries in
    ``result.results``, so client code above the codec never sees the
    protocol difference.
    """
    out: list = []
    for slot in slots:
        if not isinstance(slot, list) or not slot:
            raise ProtocolError(
                BAD_REQUEST, "malformed packed result slot"
            )
        kind = slot[0]
        if kind in (SLOT_ADMITTED, SLOT_REJECTED) and len(slot) == 3:
            out.append(
                {
                    "ok": True,
                    "result": {
                        "admitted": kind == SLOT_ADMITTED,
                        "reason": slot[1],
                        "batch_size": slot[2],
                    },
                }
            )
        elif kind == SLOT_RELEASED and len(slot) == 1:
            out.append({"ok": True, "result": {"released": True}})
        elif kind == SLOT_ERROR and len(slot) == 3:
            out.append(
                {
                    "ok": False,
                    "error": {"code": slot[1], "message": slot[2]},
                }
            )
        else:
            raise ProtocolError(
                BAD_REQUEST, f"malformed packed result slot {slot!r}"
            )
    return out
