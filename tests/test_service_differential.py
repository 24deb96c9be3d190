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
from repro.service.router import ClusterRouter
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
    # An enabled audit log forces the coalescer's queue path, so this
    # differential also covers the non-inline pipeline.
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
