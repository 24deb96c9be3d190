"""Cross-protocol differential: v1 and v2 are decision-identical.

The binary v2 framing is pure transport: for any op interleaving, a v2
connection must produce exactly the outcomes, ledger state, committed
routes, and audit trail of the same ops over newline-JSON v1 — on a
single server and through a 2-worker sharded cluster front door.
"""

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import SlotShardController
from repro.errors import ReproError
from repro.routing.shortest import shortest_path_routes
from repro.service import AdmissionService, AsyncServiceClient, ServiceConfig
from repro.service import protocol as wire
from repro.service.audit import iter_audit, verify_audit
from repro.service.router import ClusterRouter, HashRing
from repro.topology import LinkServerGraph, line_network
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs

FLOW_IDS = [f"f{i}" for i in range(10)]

_NETWORK = line_network(4)
_PAIRS = all_ordered_pairs(_NETWORK)
_ROUTES = shortest_path_routes(_NETWORK, _PAIRS)
_VOICE = voice_class()
# Tight alpha: sequences hit both admits and utilization rejections.
_ALPHA = 0.005


def make_controller():
    from repro.admission import UtilizationAdmissionController

    return UtilizationAdmissionController(
        LinkServerGraph(_NETWORK),
        ClassRegistry.two_class(_VOICE),
        {_VOICE.name: _ALPHA},
        _ROUTES,
    )


def make_shard(index, count):
    return SlotShardController(
        LinkServerGraph(_NETWORK),
        ClassRegistry.two_class(_VOICE),
        {_VOICE.name: 0.3},
        _ROUTES,
        shard_index=index,
        shard_count=count,
    )


ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("admit"),
            st.sampled_from(FLOW_IDS),
            st.sampled_from(range(len(_PAIRS))),
        ),
        st.tuples(st.just("release"), st.sampled_from(FLOW_IDS)),
    ),
    max_size=30,
)


def flow_of(op):
    _kind, fid, pair_idx = op
    src, dst = _PAIRS[pair_idx]
    return FlowSpec(fid, _VOICE.name, src, dst)


def ledger_state(controller):
    return {
        flow.flow_id: (
            flow.class_name,
            tuple(controller.committed_route(flow.flow_id)),
        )
        for flow in controller.established_flows
    }


async def run_ops(client, ops):
    """Pipeline ``ops`` through one client; outcome tuple per op."""

    async def one(op):
        try:
            if op[0] == "admit":
                decision = await client.admit(flow_of(op))
                return ("decision", decision.admitted, decision.reason)
            await client.release(op[1])
            return ("released",)
        except ReproError as exc:
            return ("error", str(exc))

    return list(await asyncio.gather(*(one(op) for op in ops)))


async def single_server_run(ops, protocol, audit_path=None):
    controller = make_controller()
    config = ServiceConfig(max_delay=0.005, audit_path=audit_path)
    service = AdmissionService(controller, config)
    await service.start_tcp("127.0.0.1", 0)
    client = await AsyncServiceClient.connect_tcp(
        "127.0.0.1", service.port, protocol=protocol
    )
    assert client.negotiated_protocol == protocol
    outcomes = await run_ops(client, ops)
    await client.close()
    await service.drain()
    return outcomes, ledger_state(controller)


@settings(deadline=None, max_examples=20)
@given(ops=ops_strategy)
def test_single_server_v1_v2_identical(ops):
    out_v1, ledger_v1 = asyncio.run(single_server_run(ops, "v1"))
    out_v2, ledger_v2 = asyncio.run(single_server_run(ops, "v2"))
    assert out_v1 == out_v2
    assert ledger_v1 == ledger_v2


def normalized_audit(path):
    """The audit trail minus wall-clock noise (ts differs per run)."""
    records = []
    for obj in iter_audit(path):
        obj = dict(obj)
        obj.pop("ts", None)
        records.append(obj)
    return records


@settings(deadline=None, max_examples=8)
@given(ops=ops_strategy)
def test_audit_trail_identical_across_protocols(ops, tmp_path_factory):
    # Single admit/release requests ride the coalescer's queue on both
    # protocols, audit log or not; how the pipelined requests fall into
    # drain batches is timing, and may differ between the two runs.  A
    # record carries nothing that depends on that composition (the
    # post-batch headroom that did is gone), so the trails must match.
    base = tmp_path_factory.mktemp("audits")
    trails = {}
    for protocol in ("v1", "v2"):
        audit = str(base / f"audit-{protocol}-{len(trails)}.jsonl")
        out, _ledger = asyncio.run(
            single_server_run(ops, protocol, audit_path=audit)
        )
        report = verify_audit(iter_audit(audit))
        assert report["ok"], report["problems"]
        trails[protocol] = (out, normalized_audit(audit))
    assert trails["v1"] == trails["v2"]


# --------------------------------------------------------------------- #
# 2-worker cluster front door
# --------------------------------------------------------------------- #


async def cluster_run(ops, protocol, tmp_path):
    shards = [make_shard(i, 2) for i in range(2)]
    services = [
        AdmissionService(shard, ServiceConfig(max_delay=0.002))
        for shard in shards
    ]
    sockets = []
    for i, service in enumerate(services):
        sock = str(tmp_path / f"worker-{protocol}-{i}.sock")
        await service.start_unix(sock)
        sockets.append(sock)
    router = ClusterRouter(sockets)
    front = str(tmp_path / f"front-{protocol}.sock")
    await router.start_unix(front)
    try:
        client = await AsyncServiceClient.connect_unix(
            front, protocol=protocol
        )
        assert client.negotiated_protocol == protocol
        outcomes = await run_ops(client, ops)
        await client.close()
    finally:
        await router.stop()
        for service in services:
            await service.drain()
    combined = {}
    for shard in shards:
        combined.update(ledger_state(shard))
    return outcomes, combined


def random_trace(seed, n=60):
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        if rng.random() < 0.7:
            ops.append(
                (
                    "admit",
                    rng.choice(FLOW_IDS),
                    rng.randrange(len(_PAIRS)),
                )
            )
        else:
            ops.append(("release", rng.choice(FLOW_IDS)))
    return ops


@pytest.mark.parametrize("seed", [1, 22, 333])
def test_cluster_v1_v2_identical(seed, tmp_path):
    ops = random_trace(seed)
    out_v1, ledger_v1 = asyncio.run(cluster_run(ops, "v1", tmp_path))
    out_v2, ledger_v2 = asyncio.run(cluster_run(ops, "v2", tmp_path))
    assert out_v1 == out_v2
    assert ledger_v1 == ledger_v2
    # The trace does real work: some admits, and the ledger is split
    # across both shard workers' quotas.
    assert any(o[0] == "decision" and o[1] for o in out_v1)


@pytest.mark.parametrize("protocol", ["v1", "v2"])
def test_cluster_batch_frames_match_single_ops(protocol, tmp_path):
    """One big batch frame through the front door equals op-at-a-time."""
    ops = random_trace(77, n=40)

    async def via_batch():
        shards = [make_shard(i, 2) for i in range(2)]
        services = [
            AdmissionService(shard, ServiceConfig(max_delay=0.002))
            for shard in shards
        ]
        sockets = []
        for i, service in enumerate(services):
            sock = str(tmp_path / f"bw-{protocol}-{i}.sock")
            await service.start_unix(sock)
            sockets.append(sock)
        router = ClusterRouter(sockets)
        front = str(tmp_path / f"bfront-{protocol}.sock")
        await router.start_unix(front)
        try:
            client = await AsyncServiceClient.connect_unix(
                front, protocol=protocol
            )
            wire_ops = []
            for op in ops:
                if op[0] == "admit":
                    flow = flow_of(op)
                    wire_ops.append(
                        {
                            "op": "admit",
                            "flow": {
                                "id": flow.flow_id,
                                "cls": flow.class_name,
                                "src": flow.source,
                                "dst": flow.destination,
                            },
                        }
                    )
                else:
                    wire_ops.append({"op": "release", "flow_id": op[1]})
            results = await client.batch(wire_ops)
            await client.close()
        finally:
            await router.stop()
            for service in services:
                await service.drain()
        outcomes = []
        for result in results:
            if not result["ok"]:
                outcomes.append(("error", result["error"]["message"]))
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
        return outcomes

    batch_outcomes = asyncio.run(via_batch())
    single_outcomes, _ = asyncio.run(
        cluster_run(ops, protocol, tmp_path)
    )
    assert batch_outcomes == single_outcomes


def test_bulk_frame_priority_survives_the_router(tmp_path):
    """A hard-RT flow admitted through the front door over a packed
    bulk frame is stored hard-RT on its shard, exactly as it is direct
    to a server — not as a priority-less legal preemption victim."""
    sub = [wire.BULK_ADMIT, "rt", _VOICE.name, "r0", "r3", None, "hard_rt"]

    async def stored_priority(controllers, services, front):
        try:
            client = await AsyncServiceClient.connect_unix(
                front, protocol="v2"
            )
            (slot,) = await client.bulk([sub], raw=True)
            await client.close()
        finally:
            for service in services:
                await service.stop()
        assert slot[0] == wire.SLOT_ADMITTED
        (flow,) = [
            f for c in controllers for f in c.established_flows
        ]
        return flow.priority

    async def direct():
        controller = make_controller()
        service = AdmissionService(controller)
        sock = str(tmp_path / "direct.sock")
        await service.start_unix(sock)
        return await stored_priority([controller], [service], sock)

    async def routed():
        shards = [make_shard(i, 2) for i in range(2)]
        workers = [AdmissionService(shard) for shard in shards]
        sockets = []
        for i, worker in enumerate(workers):
            sockets.append(str(tmp_path / f"pri-worker-{i}.sock"))
            await worker.start_unix(sockets[-1])
        router = ClusterRouter(sockets)
        front = str(tmp_path / "pri-front.sock")
        await router.start_unix(front)
        return await stored_priority(shards, [router, *workers], front)

    assert asyncio.run(direct()) == "hard_rt"
    assert asyncio.run(routed()) == "hard_rt"


# One frame of everything: valid admits and releases, a pinned hard-RT
# route, an entry that routes but is malformed, and entries with no id
# to route on (they go to worker 0).
MIXED_FRAME = [
    [wire.BULK_ADMIT, "f0", _VOICE.name, "r0", "r3", None],
    [wire.BULK_ADMIT, "f1", _VOICE.name, "r1", "r2", None],
    [wire.BULK_ADMIT, "rt", _VOICE.name, "r0", "r3",
     ["r0", "r1", "r2", "r3"], "hard_rt"],
    [wire.BULK_RELEASE, "f1"],
    [wire.BULK_ADMIT, "f0", _VOICE.name, "r0", "r3", None],  # established
    [wire.BULK_ADMIT, "bad", 7, "r0", "r3", None],  # cls is no string
    "flat",  # not a sub-op at all
    [wire.BULK_RELEASE, True],  # a bool is no flow id
    [wire.BULK_RELEASE, "never"],  # never admitted
    [wire.BULK_ADMIT, "f2", _VOICE.name, "r3", "r0", None],
    [wire.BULK_ADMIT, "f6", _VOICE.name, "r2", "r0", None],
    [wire.BULK_RELEASE, "f2"],
]


def v1_batch_op(sub):
    """The v1 ``batch`` object of one packed sub-op (a non-list entry
    stays what it is)."""
    if not isinstance(sub, list):
        return sub
    if sub[0] == wire.BULK_RELEASE:
        return {"op": "release", "flow_id": sub[1]}
    _kind, fid, cls, src, dst, route, *pri = sub
    flow = {"id": fid, "cls": cls, "src": src, "dst": dst}
    if route is not None:
        flow["route"] = route
    if pri:
        flow["pri"] = pri[0]
    return {"op": "admit", "flow": flow}


async def one_frame(frame, tmp_path, *, workers):
    """``frame`` sent once — as a ``B`` frame when its entries are
    packed, as a v1 ``batch`` otherwise — to a single server
    (``workers=0``) or to a front door over that many shard workers:
    the answer, what stayed established (priority and route), and the
    summed ``errors``."""
    count = max(workers, 1)
    shards = [make_shard(i, count) for i in range(count)]
    services = [AdmissionService(shard) for shard in shards]
    sockets = [str(tmp_path / f"mix{workers}-{i}.sock") for i in range(len(shards))]
    for service, sock in zip(services, sockets):
        await service.start_unix(sock)
    router = ClusterRouter(sockets) if workers else None
    door = sockets[0]
    if router is not None:
        door = str(tmp_path / f"mix{workers}-front.sock")
        await router.start_unix(door)
    try:
        client = await AsyncServiceClient.connect_unix(door, protocol="v2")
        if any(isinstance(op, dict) for op in frame):
            answer = (await client.request("batch", ops=frame))["results"]
        else:
            answer = await client.bulk(frame, raw=True)
        await client.close()
        errors = (
            services[0].counts["errors"]
            if router is None
            else (await router.stats())["errors"]
        )
    finally:
        if router is not None:
            await router.stop()
        for service in services:
            await service.drain()
    established = {
        flow.flow_id: (flow.priority, tuple(shard.committed_route(flow.flow_id)))
        for shard in shards
        for flow in shard.established_flows
    }
    return answer, established, errors


def without_batch_size(slots):
    """Slots minus ``batch_size``: the length of the decision run, which
    splitting a frame between workers changes by construction."""
    return [s[:2] if s[0] in (wire.SLOT_ADMITTED, wire.SLOT_REJECTED) else s
            for s in slots]


def test_mixed_bulk_frame_through_the_front_door_is_the_single_server(tmp_path):
    """The front door forwards packed sub-ops undecoded, so each worker
    decodes its share with the single server's own decoder: the same
    slots (error bytes included), the same established flows, and the
    same summed ``errors`` — one per error slot, wherever it arose."""
    single = asyncio.run(one_frame(MIXED_FRAME, tmp_path, workers=0))
    routed = asyncio.run(one_frame(MIXED_FRAME, tmp_path, workers=2))
    slots, established, errors = single
    assert without_batch_size(routed[0]) == without_batch_size(slots)
    assert routed[1:] == (established, errors)
    # The frame does what it says: both workers own a flow, the pinned
    # hard-RT route held, and five entries were refused.
    ring = HashRing(2)
    assert {ring.worker_of(fid) for fid in established} == {0, 1}
    assert established["rt"] == ("hard_rt", ("r0", "r1", "r2", "r3"))
    assert [s[0] for s in slots].count(wire.SLOT_ERROR) == errors == 5
    # The same ops as a v1 batch: one error per refused entry again.
    v1_batch = [v1_batch_op(sub) for sub in MIXED_FRAME]
    for workers in (0, 2):
        where = tmp_path / f"v1-{workers}"
        where.mkdir()
        _results, v1_established, v1_errors = asyncio.run(
            one_frame(v1_batch, where, workers=workers)
        )
        assert (v1_established, v1_errors) == (established, errors)


def test_a_cluster_op_is_unknown_at_a_front_door_as_at_a_plain_serve(tmp_path):
    """No op is the router's alone: ``cluster`` earns the plain serve's
    own ``unknown_op`` bytes at a front door too (``stats`` carries the
    worker count)."""

    async def answer(workers):
        services = [AdmissionService(make_shard(i, max(workers, 1)))
                    for i in range(max(workers, 1))]
        sockets = [str(tmp_path / f"op{workers}-{i}.sock")
                   for i in range(len(services))]
        for service, sock in zip(services, sockets):
            await service.start_unix(sock)
        router = ClusterRouter(sockets) if workers else None
        door = sockets[0]
        if router is not None:
            door = str(tmp_path / f"op{workers}-front.sock")
            await router.start_unix(door)
        try:
            reader, writer = await asyncio.open_unix_connection(door)
            writer.write(wire.encode_frame({"id": 3, "op": "cluster"}))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 5)
            writer.close()
        finally:
            if router is not None:
                await router.stop()
            for service in services:
                await service.drain()
        return line

    single = asyncio.run(answer(0))
    assert wire.decode_frame(single)["error"]["code"] == wire.UNKNOWN_OP
    assert asyncio.run(answer(2)) == single
