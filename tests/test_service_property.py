"""Property test: the service is decision-identical to the in-process API.

For any interleaving of admit/release requests — duplicate flow ids,
releases of unknown flows, re-admissions after rejection, best-effort
flows, and the requests ``admit()`` refuses outright (an unknown class,
a pinned route over a link that does not exist) — pipelining the ops
through the server (where the micro-batch coalescer groups them into
batch-kernel calls) must produce exactly the outcomes of calling the
controller sequentially in process, error code and message included,
and leave the controller in the identical state.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import UtilizationAdmissionController
from repro.errors import (
    AdmissionError,
    ProtocolError,
    ReproError,
    TrafficError,
)
from repro.routing.shortest import shortest_path_routes
from repro.service import AdmissionService, AsyncServiceClient, ServiceConfig
from repro.topology import LinkServerGraph, line_network
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs

# Small id pool -> plenty of duplicate admits, double releases, and
# release-then-readmit chains inside one coalescing window.
FLOW_IDS = [f"f{i}" for i in range(12)]

_NETWORK = line_network(4)
_PAIRS = all_ordered_pairs(_NETWORK)
_ROUTES = shortest_path_routes(_NETWORK, _PAIRS)
_VOICE = voice_class()

# Tiny alpha: the r0->r3 path holds ~15 voice flows, so 40-op sequences
# exercise rejections and post-rejection re-admissions too.
_ALPHA = 0.005


def make_controller():
    return UtilizationAdmissionController(
        LinkServerGraph(_NETWORK),
        ClassRegistry.two_class(_VOICE),
        {_VOICE.name: _ALPHA},
        _ROUTES,
    )


#: What an admit asks for.  Mostly plain voice flows; the rest are a
#: best-effort flow (commits without a kernel call) and the two requests
#: the sequential API refuses with an exception whatever the load.
_SHAPES = ["voice"] * 5 + ["best-effort", "unknown class", "unknown link"]

ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("admit"),
            st.sampled_from(FLOW_IDS),
            st.sampled_from(range(len(_PAIRS))),
            st.sampled_from(_SHAPES),
        ),
        st.tuples(st.just("release"), st.sampled_from(FLOW_IDS)),
    ),
    max_size=40,
)


def flow_of(op):
    _kind, fid, pair_idx, shape = op
    src, dst = _PAIRS[pair_idx]
    if shape == "unknown link":
        return FlowSpec(
            fid, _VOICE.name, src, dst, route=(src, "Nowhere", dst)
        )
    if shape == "unknown class":
        return FlowSpec(fid, "video9", src, dst)
    return FlowSpec(fid, shape, src, dst)


def error_outcome(exc):
    """An exception as the wire reports it: ``(error, code, message)``.
    In process the code is what the server's outcome encoder would pick
    for the exception's type."""
    if isinstance(exc, ProtocolError):
        code = exc.code
    elif isinstance(exc, (AdmissionError, TrafficError)):
        code = "admission_error"
    else:
        code = "internal"
    return ("error", code, str(exc))


def sequential_outcomes(controller, ops):
    outcomes = []
    for op in ops:
        try:
            if op[0] == "admit":
                decision = controller.admit(flow_of(op))
                outcomes.append(
                    ("decision", decision.admitted, decision.reason)
                )
            else:
                controller.release(op[1])
                outcomes.append(("released",))
        except ReproError as exc:
            outcomes.append(error_outcome(exc))
    return outcomes


async def wire_outcomes(controller, ops, protocol="v1"):
    service = AdmissionService(
        controller,
        # A wide-open window so pipelined ops land in few batches.
        ServiceConfig(max_delay=0.005),
    )
    await service.start_tcp("127.0.0.1", 0)
    client = await AsyncServiceClient.connect_tcp(
        "127.0.0.1", service.port, protocol=protocol
    )
    assert client.negotiated_protocol == protocol

    async def run(op):
        try:
            if op[0] == "admit":
                decision = await client.admit(flow_of(op))
                return ("decision", decision.admitted, decision.reason)
            await client.release(op[1])
            return ("released",)
        except ReproError as exc:
            return error_outcome(exc)

    # gather() starts the tasks in order; each one's request frame is
    # written synchronously before its first await, so the server sees
    # the ops in exactly this order.
    outcomes = list(await asyncio.gather(*(run(op) for op in ops)))
    await client.close()
    await service.drain()
    return outcomes


def assert_same_state(wire_controller, seq_controller):
    assert wire_controller.snapshot() == seq_controller.snapshot()
    for controller in (wire_controller, seq_controller):
        assert controller.verify_invariants() == []
        assert len(controller._flows) == controller.num_established


@pytest.mark.parametrize("protocol", ["v1", "v2"])
@settings(deadline=None, max_examples=30)
@given(ops=ops_strategy)
def test_wire_decisions_identical_to_in_process(protocol, ops):
    wire_controller = make_controller()
    seq_controller = make_controller()
    wire = asyncio.run(wire_outcomes(wire_controller, ops, protocol))
    seq = sequential_outcomes(seq_controller, ops)
    assert wire == seq
    assert_same_state(wire_controller, seq_controller)


@pytest.mark.parametrize("protocol", ["v1", "v2"])
@settings(deadline=None, max_examples=15)
@given(ops=ops_strategy)
def test_batch_frames_identical_to_in_process(protocol, ops):
    """The same property through a single ``batch`` frame (packed to
    one bulk frame on v2, a carrier ``batch`` frame on v1)."""

    async def via_batch(controller):
        service = AdmissionService(controller)
        await service.start_tcp("127.0.0.1", 0)
        client = await AsyncServiceClient.connect_tcp(
            "127.0.0.1", service.port, protocol=protocol
        )
        assert client.negotiated_protocol == protocol
        wire_ops = []
        for op in ops:
            if op[0] == "admit":
                wire_ops.append(
                    {"op": "admit", "flow": flow_of(op).to_obj()}
                )
            else:
                wire_ops.append({"op": "release", "flow_id": op[1]})
        results = await client.batch(wire_ops) if wire_ops else []
        outcomes = []
        for result in results:
            if not result["ok"]:
                error = result["error"]
                outcomes.append(("error", error["code"], error["message"]))
            elif "admitted" in result["result"]:
                outcomes.append(
                    (
                        "decision",
                        result["result"]["admitted"],
                        result["result"]["reason"],
                    )
                )
            else:
                outcomes.append(("released",))
        await client.close()
        await service.drain()
        return outcomes

    wire_controller = make_controller()
    seq_controller = make_controller()
    wire = asyncio.run(via_batch(wire_controller))
    seq = sequential_outcomes(seq_controller, ops)
    assert wire == seq
    assert_same_state(wire_controller, seq_controller)
