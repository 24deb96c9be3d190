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
  and a recycled route row leaks nothing of its previous route (tail,
  pair);
* once every flow is released, a route table that holds the configured
  routes alone.

The same sequences run again with ``flowtable.SEGMENT_INSERTS`` at 2
to 4, so that they cross the id index's seals and merges; and the table
alone is driven through batches whose duplicate or absent id lives in
an older segment, against an insertion-ordered dict of ids.

Around it: a malformed configured route is refused where it enters, a
route row planted with another pair's servers is reported, and hostile
churn over many distinct pinned routes leaves the route table and the
shared values bounded by the configured and the live routes.

It runs on two rings: six routers (12 link servers, every column of
the table ``int8``) and 65 routers (130 link servers, past ``int8``, so
the server column is ``int16`` and routes cross servers on both sides
of 127).
"""

import re
from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import (
    FlowAwareAdmissionController,
    SlotShardController,
    UtilizationAdmissionController,
)
from repro.admission import flowtable
from repro.admission.flowtable import FlowTable, _route
from repro.errors import AdmissionError, ConfigurationError
from repro.routing.shortest import shortest_path_routes
from repro.topology import LinkServerGraph, ring_network
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import PRIORITIES, FlowSpec, flow_record

#: Ids that are distinct keys but equal as text.
IDS = [0, 1, 2, "0", "1", "a", "b"]
#: Three and fifteen voice slots a link.
ALPHAS = (0.1, 0.5)
REGISTRY = ClassRegistry.two_class(voice_class())


class Ring:
    """A ring of ``n`` routers, and the ordered pairs of ``routers``
    (all of them when omitted) with their shortest routes."""

    def __init__(self, n, routers=None):
        self.n = n
        net = ring_network(n, capacity=1e6)
        self.graph = LinkServerGraph(net)
        names = [f"r{i}" for i in (range(n) if routers is None else routers)]
        self.pairs = [(a, b) for a in names for b in names if a != b]
        self.routes = shortest_path_routes(net, self.pairs)

    def way_round(self, pair, clockwise):
        """One of the two simple paths of the ring between ``pair``."""
        i, j = int(pair[0][1:]), int(pair[1][1:])
        step = 1 if clockwise else -1
        path = [i]
        while path[-1] != j:
            path.append((path[-1] + step) % self.n)
        return tuple(f"r{k}" for k in path)

    def make(self, kind, alpha, routes=None):
        routes = self.routes if routes is None else routes
        if kind == "flow-aware":
            return FlowAwareAdmissionController(self.graph, REGISTRY, routes)
        if kind == "slotshard":
            return SlotShardController(
                self.graph, REGISTRY, {"voice": alpha}, routes,
                shard_index=0, shard_count=1,
            )
        return UtilizationAdmissionController(
            self.graph, REGISTRY, {"voice": alpha}, routes
        )

    def ops(self):
        """Hypothesis op sequences over this ring's pairs."""
        flows = st.builds(
            lambda fid, pair, cls, priority, pin: FlowSpec(
                fid, cls, *pair, priority=priority,
                route=None if pin is None else self.way_round(pair, pin),
            ),
            st.sampled_from(IDS),
            st.sampled_from(self.pairs),
            st.sampled_from(["voice", "voice", "voice", "best-effort"]),
            st.sampled_from((None,) + PRIORITIES),
            st.sampled_from([None, None, True, False]),
        )
        return st.lists(
            st.one_of(
                st.tuples(st.just("admit"), flows),
                st.tuples(
                    st.just("admit_batch"), st.lists(flows, max_size=5)
                ),
                st.tuples(st.just("release"), st.sampled_from(IDS)),
                st.tuples(
                    st.just("release_batch"),
                    st.lists(st.sampled_from(IDS), max_size=4, unique=True),
                ),
                st.tuples(
                    st.just("reroute"), st.sampled_from(IDS), st.booleans()
                ),
                st.tuples(
                    st.just("update_routes"),
                    st.sampled_from(self.pairs),
                    st.booleans(),
                ),
            ),
            max_size=30,
        )


SMALL = Ring(6)
#: 130 link servers, so an int16 server column; routes among these
#: routers cross servers 0 .. 129.
WIDE = Ring(65, routers=(0, 1, 2, 32, 62, 63, 64))


class DictOfRecords:
    """The record the flow table replaced: ``flow id -> (FlowSpec,
    committed route)`` in a plain, insertion-ordered dict."""

    def __init__(self, ring):
        self.ring = ring
        self.route_map = {
            pair: list(path) for pair, path in ring.routes.items()
        }
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
        graph = self.ring.graph
        used = np.zeros(graph.num_servers, dtype=np.int64)
        for flow, route in self.established.values():
            if flow.class_name == "voice":
                used[graph.route_servers(route)] += 1
        return used


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
        moved = replace(
            flow, route=model.ring.way_round(flow.pair, clockwise)
        )
        if controller.reroute(fid, moved.route).admitted:
            model.establish(moved)
    else:
        _kind, pair, clockwise = op
        path = list(model.ring.way_round(pair, clockwise))
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


def round_trip(ring, kind, ops, alpha):
    controller, model = ring.make(kind, alpha), DictOfRecords(ring)
    for op in ops:
        apply(controller, model, op)
        check(controller, model)
    if kind != "flow-aware":
        # A restart re-admits the snapshot: same flows, same order,
        # every one pinned to the route it held.
        restored = ring.make(kind, alpha)
        restored.restore(controller.snapshot())
        assert restored.snapshot() == controller.snapshot()
        assert restored.established_records == [
            (replace(flow, route=tuple(route)), route)
            for flow, route in model.established.values()
        ]
        assert restored.verify_invariants() == []
    # Whatever the route map says by now, every flow frees what it took,
    # and every route no pair is configured with goes.
    controller.release_batch(list(model.established))
    model.established.clear()
    check(controller, model)
    table = controller._flows
    assert len(table._keys) == len(controller.route_map)
    assert table.verify() == []


@pytest.mark.parametrize("kind", ["utilization", "slotshard", "flow-aware"])
@settings(deadline=None, max_examples=60)
@given(ops=SMALL.ops(), alpha=st.sampled_from(ALPHAS))
def test_the_store_round_trips_what_the_dict_held(kind, ops, alpha):
    round_trip(SMALL, kind, ops, alpha)


@pytest.mark.parametrize("kind", ["utilization", "slotshard", "flow-aware"])
@settings(deadline=None, max_examples=30)
@given(ops=WIDE.ops(), alpha=st.sampled_from(ALPHAS))
def test_the_store_round_trips_past_the_int8_server_column(kind, ops, alpha):
    round_trip(WIDE, kind, ops, alpha)


#: Segment sizes small enough that a sequence of a few ops seals and
#: merges segments of the id index.
SMALL_SEGMENTS = (2, 3, 4)


@pytest.mark.parametrize("kind", ["utilization", "slotshard", "flow-aware"])
@settings(deadline=None, max_examples=40)
@given(
    ops=SMALL.ops(),
    alpha=st.sampled_from(ALPHAS),
    inserts=st.sampled_from(SMALL_SEGMENTS),
)
def test_the_store_round_trips_across_seals_and_merges(kind, ops, alpha, inserts):
    """Records in establishment order, the ledger, snapshots and the
    restore round trip, with the id index sealing a segment every few
    inserts and merging segments as releases thin them."""
    with mock.patch.object(flowtable, "SEGMENT_INSERTS", inserts):
        round_trip(SMALL, kind, ops, alpha)


#: Table-level ops: ``(kind, picks, fault)``.  An add takes one fresh
#: id per pick; a pop takes the established ids at the picked positions
#: of the establishment order.  ``fault`` then spoils the batch: an id
#: repeated, an established id added, or an absent id popped.
TABLE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add_routed", "pop", "pop_batch"]),
        st.lists(st.integers(0, 1 << 16), min_size=1, max_size=5),
        st.sampled_from([None, None, "repeat", "foreign"]),
    ),
    max_size=60,
)


def _table_batch(kind, picks, fault, model, serial):
    """The ids of one table op, and whether the op must succeed."""
    order = list(model)
    if kind.startswith("add"):
        ids = [f"f{serial + k}" for k in range(len(picks))]
        if fault == "foreign" and order:
            ids[-1] = order[picks[-1] % len(order)]
    else:
        if not order:
            return [f"absent{serial}"], False
        ids = list(dict.fromkeys(order[p % len(order)] for p in picks))
        if fault == "foreign":
            ids.append(f"absent{serial}")
    if kind in ("add", "pop"):
        ids = ids[-1:]
    elif fault == "repeat":
        ids.append(ids[0])
    ok = len(set(ids)) == len(ids) and all(
        (fid in model) != kind.startswith("add") for fid in ids
    )
    return ids, ok


@settings(deadline=None, max_examples=150)
@given(ops=TABLE_OPS, inserts=st.sampled_from(SMALL_SEGMENTS))
def test_batches_are_all_or_nothing_across_segments(ops, inserts):
    """``add``, ``add_routed``, ``pop`` and ``pop_batch`` against an
    insertion-ordered dict: an op with an id that is already
    established or absent — wherever in the index it lives — or that
    repeats raises and changes nothing; otherwise the table holds the
    dict's ids, in its order, and :meth:`FlowTable.verify` finds
    nothing (no id in two segments, no adjacent sealed segments that
    fitted in one at the last seal)."""
    with mock.patch.object(flowtable, "SEGMENT_INSERTS", inserts):
        table = FlowTable(pad=9)
        pair = table.pair_code(("a", "b"))
        table.configure(pair, np.array([1, 2]))
        (route,) = table.configured_routes([pair]).tolist()
        model = {}
        for serial, (kind, picks, fault) in enumerate(ops):
            ids, ok = _table_batch(kind, picks, fault, model, 10 * serial)
            before = table.records()
            with nullcontext() if ok else pytest.raises(AdmissionError):
                if kind == "add":
                    table.add(ids[0], 1, np.array([1, 2]), 2, pair)
                elif kind == "add_routed":
                    table.add_routed(ids, 1, [route] * len(ids), 2)
                elif kind == "pop":
                    table.pop(ids[0])
                else:
                    table.pop_batch(ids)
            if not ok:
                assert table.records() == before
            elif kind.startswith("add"):
                model.update(dict.fromkeys(ids))
                # A batch is never split: all of it is in the open
                # segment.
                assert all(fid in table._segs[-1] for fid in ids)
            else:
                for fid in ids:
                    del model[fid]
            assert list(table) == list(model)
            assert len(table) == len(model)
            assert table.records() == [(fid, 1, 2, ("a", "b"), False) for fid in model]
            assert all(fid in table for fid in model)
            assert table.verify() == []
            # At most 2 n / share + 2 dicts to probe, n the flows and
            # share the open segment's share at the last seal.
            assert len(table._segs) <= 2 * sum(table._sealed) / table._share + 2


def test_update_routes_replaces_route_lists_and_never_mutates_them():
    """``update_routes`` replaces the configured route's list, never
    mutates it, and an established flow keeps the route it was
    admitted on."""
    controller = SMALL.make("utilization", 0.5)
    pair = ("r0", "r2")
    before = controller.route_map[pair]
    contents = list(before)
    assert controller.admit(FlowSpec("old", "voice", *pair)).admitted
    servers = controller._flows.servers_of("old").tolist()
    detour = list(SMALL.way_round(pair, clockwise=False))
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
    assert controller._flows.servers_of("old").tolist() == servers
    assert controller.verify_invariants() == []
    controller.release("old")
    controller.release("new")
    assert not controller.ledger.used_view("voice").any()


#: What a configured route can get wrong.
MALFORMED = ("wrong endpoint", "one router", "repeated router", "unknown link")


def malformed(ring, pair, fault, clockwise):
    """A route for ``pair`` on ``ring`` that breaks one rule."""
    source, destination = pair
    path = list(ring.way_round(pair, clockwise))
    if fault == "wrong endpoint":
        if len(path) > 2:
            return path[:-1]
        return list(ring.way_round(pair, not clockwise))[:2]
    if fault == "one router":
        return [source]
    if fault == "repeated router":
        return [source, path[1]] + path
    return [source, "nowhere", destination]


@pytest.mark.parametrize("kind", ["utilization", "slotshard", "flow-aware"])
@settings(deadline=None, max_examples=40)
@given(
    pair=st.sampled_from(SMALL.pairs),
    fault=st.sampled_from(MALFORMED),
    clockwise=st.booleans(),
    ops=SMALL.ops(),
)
def test_a_malformed_configured_route_is_refused_where_it_enters(
    kind, pair, fault, clockwise, ops
):
    """At construction and at ``update_routes``: a named error that
    names the pair, and a controller that is as it was."""
    bad = malformed(SMALL, pair, fault, clockwise)
    named = f"configured route for pair {pair!r}"
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        SMALL.make(kind, 0.5, {**SMALL.routes, pair: bad})
    controller, model = SMALL.make(kind, 0.5), DictOfRecords(SMALL)
    for op in ops:
        apply(controller, model, op)
    route_map = {k: list(v) for k, v in controller.route_map.items()}
    # A good entry before the bad one is not applied either.
    other = next(p for p in SMALL.pairs if p != pair)
    detour = list(SMALL.way_round(other, not clockwise))
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        controller.update_routes({other: detour, pair: bad})
    assert controller.route_map == route_map
    check(controller, model)
    flow = FlowSpec("late", "best-effort", *pair)
    assert controller.admit(flow).admitted
    assert controller.committed_route("late") == route_map[pair]


@pytest.mark.parametrize("kind", ["utilization", "slotshard"])
def test_a_row_planted_with_another_pairs_servers_is_reported(kind):
    """The route rows of two voice flows of different pairs swap
    servers: the ledger still adds up, but each row now says its flow
    is somewhere else, and differs from the key it was interned by."""
    controller = SMALL.make(kind, 0.5)
    for fid, pair in (("a", ("r0", "r2")), ("b", ("r3", "r5"))):
        assert controller.admit(FlowSpec(fid, "voice", *pair)).admitted
    assert controller.verify_invariants() == []
    table = controller._flows
    a, b = _route(table._value("a")), _route(table._value("b"))
    table._servers[[a, b]] = table._servers[[b, a]]
    problems = controller.verify_invariants()
    for fid in ("'a'", "'b'"):
        assert any(f"flow {fid}" in p for p in problems), problems
    for route in (a, b):
        assert any(p.startswith(f"route row {route} ") for p in problems)
    assert not any(p.startswith("ledger mismatch") for p in problems)


def test_hostile_pinned_churn_leaves_the_configured_and_the_live_routes():
    """Rounds of flows pinned the long way round, every one on a route
    of its own, batched and one at a time, then all but a few released:
    the route table's keys and the shared values come back to the
    configured routes plus the survivors', and its rows stop growing
    after the first round."""
    ring = Ring(65, routers=range(0, 65, 4))
    controller = ring.make("utilization", 0.5)
    table = controller._flows
    configured = set(table._keys.values())
    assert len(configured) == len(ring.pairs)
    survivors, rows = [], []
    for rnd in range(3):
        flows = [
            FlowSpec(
                f"p{rnd}-{i}", "best-effort" if i % 4 else "voice", *pair,
                route=max(
                    (ring.way_round(pair, c) for c in (True, False)), key=len
                ),
            )
            for i, pair in enumerate(ring.pairs)
        ]
        decisions = controller.admit_batch(flows[:200])
        decisions += [controller.admit(flow) for flow in flows[200:]]
        admitted = [f.flow_id for f, d in zip(flows, decisions) if d.admitted]
        assert len(admitted) > 200
        survivors.append(admitted[-1])
        controller.release_batch(admitted[:100])
        for fid in admitted[100:-1]:
            controller.release(fid)
        rows.append(table.rows)
        live = {_route(table._value(fid)) for fid in survivors}
        assert set(table._keys.values()) == configured | live
        assert {_route(v) for v in table._canon} <= configured | live
        assert controller.verify_invariants() == []
    assert rows[0] == rows[-1]
    controller.release_batch(survivors)
    assert set(table._keys.values()) == configured
