"""The flow table round-trips everything the flow-record dict held.

Until the flow table became the only per-flow record, a controller kept
``flow id -> (FlowSpec, committed route)`` in a plain dict beside it.
That dict *is* the specification of ``established_records``,
``snapshot()``, ``committed_route`` and ``reroute``: this suite writes
it out (:class:`DictOfRecords`, the parent's semantics line for line)
and drives it and a real controller through the same Hypothesis-drawn
admit / release / reroute / ``update_routes`` sequences — pinned and
configured routes, a best-effort class, unset priorities, int and str
ids that collide as text, a ledger tight enough to reject — comparing
after every step:

* ``established_records`` in content *and establishment order*;
* ``snapshot()`` (``priority`` present only when set) and, at the end,
  ``restore(snapshot())`` on a fresh controller;
* the ledger against the servers of every recorded route, so a flow
  admitted before ``update_routes`` releases exactly what it committed
  and a recycled row leaks nothing of its previous occupant (route
  tail, pair, pinned bit).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import (
    FlowAwareAdmissionController,
    SlotShardController,
    UtilizationAdmissionController,
)
from repro.errors import AdmissionError
from repro.routing.shortest import shortest_path_routes
from repro.topology import LinkServerGraph, ring_network
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import PRIORITIES, FlowSpec, flow_record

N = 6
NET = ring_network(N, capacity=1e6)
GRAPH = LinkServerGraph(NET)
REGISTRY = ClassRegistry.two_class(voice_class())
PAIRS = [(f"r{i}", f"r{j}") for i in range(N) for j in range(N) if i != j]
ROUTES = shortest_path_routes(NET, PAIRS)
#: Ids that are distinct keys but equal as text.
IDS = [0, 1, 2, "0", "1", "a", "b"]
#: Three and fifteen voice slots a link.
ALPHAS = (0.1, 0.5)


def way_round(pair, clockwise):
    """One of the two simple paths of the ring between ``pair``."""
    i, j = int(pair[0][1:]), int(pair[1][1:])
    step = 1 if clockwise else -1
    path = [i]
    while path[-1] != j:
        path.append((path[-1] + step) % N)
    return tuple(f"r{k}" for k in path)


def make(kind, alpha):
    if kind == "flow-aware":
        return FlowAwareAdmissionController(GRAPH, REGISTRY, ROUTES)
    if kind == "slotshard":
        return SlotShardController(
            GRAPH, REGISTRY, {"voice": alpha}, ROUTES,
            shard_index=0, shard_count=1,
        )
    return UtilizationAdmissionController(
        GRAPH, REGISTRY, {"voice": alpha}, ROUTES
    )


class DictOfRecords:
    """The record the flow table replaced: ``flow id -> (FlowSpec,
    committed route)`` in a plain, insertion-ordered dict."""

    def __init__(self):
        self.route_map = {pair: list(path) for pair, path in ROUTES.items()}
        self.established = {}

    def establish(self, flow):
        route = (
            list(flow.route)
            if flow.route is not None
            else list(self.route_map[flow.pair])
        )
        self.established[flow.flow_id] = (flow, route)

    def used(self):
        """What the ledger must hold: one slot per link server of every
        real-time flow's recorded route."""
        used = np.zeros(GRAPH.num_servers, dtype=np.int64)
        for flow, route in self.established.values():
            if flow.class_name == "voice":
                used[GRAPH.route_servers(route)] += 1
        return used


flows = st.builds(
    lambda fid, pair, cls, priority, pin: FlowSpec(
        fid, cls, *pair, priority=priority,
        route=None if pin is None else way_round(pair, pin),
    ),
    st.sampled_from(IDS),
    st.sampled_from(PAIRS),
    st.sampled_from(["voice", "voice", "voice", "best-effort"]),
    st.sampled_from((None,) + PRIORITIES),
    st.sampled_from([None, None, True, False]),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), flows),
        st.tuples(st.just("admit_batch"), st.lists(flows, max_size=5)),
        st.tuples(st.just("release"), st.sampled_from(IDS)),
        st.tuples(
            st.just("release_batch"),
            st.lists(st.sampled_from(IDS), max_size=4, unique=True),
        ),
        st.tuples(
            st.just("reroute"), st.sampled_from(IDS), st.booleans()
        ),
        st.tuples(
            st.just("update_routes"), st.sampled_from(PAIRS), st.booleans()
        ),
    ),
    max_size=30,
)


def apply(controller, model, op):
    """One op on both; the controller decides, the model records."""
    established = model.established
    if op[0] == "admit":
        flow = op[1]
        if flow.flow_id in established:
            with pytest.raises(AdmissionError, match="already established"):
                controller.admit(flow)
        elif controller.admit(flow).admitted:
            model.establish(flow)
    elif op[0] == "admit_batch":
        batch = list({f.flow_id: f for f in op[1]}.values())
        batch = [f for f in batch if f.flow_id not in established]
        for flow, decision in zip(batch, controller.admit_batch(batch)):
            if decision.admitted:
                model.establish(flow)
    elif op[0] == "release":
        if op[1] in established:
            controller.release(op[1])
            del established[op[1]]
        else:
            with pytest.raises(AdmissionError, match="not established"):
                controller.release(op[1])
    elif op[0] == "release_batch":
        if all(fid in established for fid in op[1]):
            controller.release_batch(op[1])
            for fid in op[1]:
                del established[fid]
        else:
            with pytest.raises(AdmissionError, match="not established"):
                controller.release_batch(op[1])
    elif op[0] == "reroute":
        _kind, fid, clockwise = op
        if fid not in established:
            with pytest.raises(AdmissionError, match="not established"):
                controller.reroute(fid, ("r0", "r1"))
            return
        # Release-on-reroute: gone, then (if it fits) back at the end
        # of the establishment order with the new route pinned.
        flow, _route = established.pop(fid)
        moved = replace(flow, route=way_round(flow.pair, clockwise))
        if controller.reroute(fid, moved.route).admitted:
            model.establish(moved)
    else:
        _kind, pair, clockwise = op
        path = list(way_round(pair, clockwise))
        controller.update_routes({pair: path})
        model.route_map[pair] = path


def check(controller, model):
    records = list(model.established.values())
    assert controller.established_records == records
    assert controller.established_flows == [flow for flow, _ in records]
    assert controller.num_established == len(records)
    for flow, route in records:
        assert controller.is_established(flow.flow_id)
        assert controller.committed_route(flow.flow_id) == route
    assert controller.verify_invariants() == []
    if isinstance(controller, UtilizationAdmissionController):
        assert controller.snapshot()["flows"] == [
            flow_record(flow, route) for flow, route in records
        ]
        assert (
            controller.ledger.used_view("voice").tolist()
            == model.used().tolist()
        )


@pytest.mark.parametrize("kind", ["utilization", "slotshard", "flow-aware"])
@settings(deadline=None, max_examples=60)
@given(ops=ops, alpha=st.sampled_from(ALPHAS))
def test_the_store_round_trips_what_the_dict_held(kind, ops, alpha):
    controller, model = make(kind, alpha), DictOfRecords()
    for op in ops:
        apply(controller, model, op)
        check(controller, model)
    if kind != "flow-aware":
        # A restart re-admits the snapshot: same flows, same order,
        # every one pinned to the route it held.
        restored = make(kind, alpha)
        restored.restore(controller.snapshot())
        assert restored.snapshot() == controller.snapshot()
        assert restored.established_records == [
            (replace(flow, route=tuple(route)), route)
            for flow, route in model.established.values()
        ]
        assert restored.verify_invariants() == []
    # Whatever the route map says by now, every flow frees what it took.
    controller.release_batch(list(model.established))
    model.established.clear()
    check(controller, model)


def test_update_routes_replaces_route_lists_and_never_mutates_them():
    """Flow-table rows share the configured route's list, so the list
    an established flow points at must never change under it."""
    controller = make("utilization", 0.5)
    pair = ("r0", "r2")
    before = controller.route_map[pair]
    contents = list(before)
    assert controller.admit(FlowSpec("old", "voice", *pair)).admitted
    servers = controller.committed_servers("old").tolist()
    detour = list(way_round(pair, clockwise=False))
    assert detour != contents
    controller.update_routes({pair: detour})
    assert controller.route_map[pair] is not before
    assert controller.route_map[pair] == detour and before == contents
    # update_routes copied its argument too: the caller may reuse it.
    detour.append("junk")
    assert controller.route_map[pair] == detour[:-1]
    assert controller.admit(FlowSpec("new", "voice", *pair)).admitted
    assert controller.committed_route("old") == contents
    assert controller.committed_route("new") == detour[:-1]
    assert controller.committed_servers("old").tolist() == servers
    assert controller.verify_invariants() == []
    controller.release("old")
    controller.release("new")
    assert not controller.ledger.used_view("voice").any()
