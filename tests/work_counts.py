"""Exact work counts of the decision path, for the tier-1 ratchet.

:func:`count_work` decides seeded frames in-process through
``MicroBatchCoalescer.submit_bulk`` (the path every served frame takes)
and counts, with ``sys.setprofile``, the Python calls the decisions
make.  Timing here swings 20-28 % between runs; a call count repeats
exactly, so it is what ``tests/test_work_counts.py`` pins.

Five windows, each after a warm-up that fills every cache:

* ``churn``: the memory soak's churn shape (runs of 32 admits, then the
  releases that bring the window back to 2 000 flows), bare;
* ``bulk``: ``bulk_churn``-shaped frames on MCI at alpha 0.3 -- 1 024
  ops, admits and releases interleaved at random (runs of about 2)
  over a few thousand established flows -- bare;
* ``bulk_audited``: the same frames with an ``AuditLog`` attached and
  observability on, which also counts the metrics-registry lookups
  (calls of ``MetricsRegistry.counter`` / ``gauge`` / ``histogram``);
* ``router`` and ``worker``: ``bulk``-shaped frames, packed as a v2
  client sends them, through a two-worker cluster front door.
  ``router`` counts ``ClusterRouter.begin_bulk`` (the split per owner,
  each owner's ``B`` frame encoded), the link taking each frame off
  its outbox, decoding each owner's ``R`` frame, and the merge and
  encode of the client's ``R`` frame.  ``worker`` counts the two
  ``SlotShardController`` shards deciding their halves from
  ``AdmissionService.begin_bulk`` to their ``R`` frame;
* ``serve``: the same packed frames decided by one plain serve from the
  same boundary, the yardstick a worker's calls per op are read
  against;
* ``lone_v1`` and ``lone_v2``: one admit and then its release, each a
  request of its own, from the bytes of the request (a v1 line, a v2
  JSON carrier frame) through ``AdmissionService.begin_request`` to the
  response it writes, on a plain serve with a few thousand flows
  established (both requests' calls summed per protocol, and their C
  calls beside them: ``lone_v1_c_calls``, ``lone_v2_c_calls``).

``scaling_<N>``: one fixed 200-op frame (pairs of admits, then pairs
of releases of flows it finds established) against ``N`` = 500, 2 000
and 6 000 elastic flows on MCI at alpha 0.3, written into the flow table
with ``add_routed`` and committed to the ledger beside it, after one
warm-up frame of the same shape.  The paper's run-time test is
O(route length) whatever the number of established flows (PAPER.md,
item 2), so the calls per op at 6 000 may exceed those at 500 by
``MAX_SCALING_RATIO`` at most.  ``preempt_<N>_calls`` is one
``Preemptor.try_admit`` at each size, after that frame: a hard-RT
arrival on a route that elastic arrivals have filled, rescued by one
eviction -- the one path that scans every established flow
(``FlowTable.holders``).

``certify`` is not a decision window but the start-up certification of
``serve --topology mci --alpha 0.3 --governor`` (``cli._certified_ladder``
on ``cli._admission_setup``): the fixed-point solves it runs
(``certify_solves``), the iterations they report (``certify_iterations``,
spent in cyclic components only) and the servers they evaluate
(``certify_servers``: calls of the solver's one-server Theorem 3 map).

``search`` is not a decision window either but three configuration-time
searches on MCI's shortest-path routes, each counted in numpy
fixed-point solves (``search_*_solves``: returns of
``fixedpoint._solve``), the iterations they report
(``search_*_iterations``) and the route systems they compile
(``search_*_builds``: calls of ``RouteSystem.__init__``; a fixed-route
search compiles its routes once): ``critical_alpha`` at its default resolution
(``critical``), ``max_utilization_shortest_path`` at its default
resolution (``sp``), and ``maximize_multiclass_scale`` at voice : video
= 1 : 2, resolution ``1e-3`` (``scale``).  Every probe after the first
feasible one warm-starts from it, which is what the iteration pins
hold.

The ``bulk`` window also counts C calls (``bulk_c_calls``: the profile
hook's ``c_call`` events, builtins and C methods and functions alike),
what the Python call count does not see.

``frame_heap_bytes`` is not a call count but the heap one served frame
costs: the tracemalloc peak of one more ``bulk``-shaped packed frame,
from ``decode_payload_v2`` of its payload through a plain serve's
``AdmissionService.begin_bulk`` to the ``R`` frame it writes, with the
decoded frame let go once ``begin_bulk`` returns, as the read loop lets
go of it.  It is taken in a fresh interpreter, where it repeats to the
byte, as the call counts do, and one that never imported numpy: no
array library's block cache sits in what it reads.

``flow_heap_bytes`` is the heap an established flow keeps: what the
traced heap grew by, per flow, while :func:`bytes_per_wire_established_flow`
established 6 000 flows on MCI the way a served process does.  It too
is taken in a fresh interpreter.

``index_peak_bytes`` is the most the flow table's id index holds at
once beyond what it keeps: while 30 000 admits and releases churn a
filled 8 000-flow ``FlowTable`` through ``add_routed`` / ``pop_batch``
at a stationary population, the largest tracemalloc peak of one call
above the heap before and after it, in a fresh interpreter.  One dict
is rebuilt whole under such churn (CPython does not reuse its deleted
entries) and holds its old and its new table at once; the segmented
index rebuilds one segment at a time.

:func:`vmhwm_trace` is not pinned (resident memory is page-grained and
allocator-dependent): it serves ``bulk``-shaped packed frames to a
plain serve in a fresh interpreter and returns, per frame, the step of
``VmHWM``, split into anonymous and file-backed pages.

``ceiling_x`` (worker calls over router calls per op) is the cluster's
scale-out ceiling: the router is one process, so however many workers
share the decisions it cannot pass ``ceiling_x`` times one worker's
rate.  Sockets are left out on both sides of each hop.

The two bare windows also count controller entries (calls of
``admit_batch_routed`` and ``release_batch``) and kernel entries (runs
that take the numpy path: the utilization controller's own
``_admit_batch_impl`` / ``_release_batch_impl``), ROADMAP 2(a)'s
yardstick.  Every count is taken by code object in the profile hook,
so the decision path carries nothing that only this file reads.

Run it directly to print the counts of the checkout on ``PYTHONPATH``,
and the frames of :func:`vmhwm_trace` that raised the high-water mark::

    PYTHONPATH=src python tests/work_counts.py
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from importlib.metadata import version
from itertools import chain
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro import obs
from repro.admission import SlotShardController, UtilizationAdmissionController
from repro.admission import flowtable
from repro.admission.base import AdmissionController
from repro.analysis import theorem3
from repro.control.preempt import Preemptor
from repro.experiments import cli
from repro.obs.metrics import MetricsRegistry
from repro.routing.shortest import shortest_path_routes
from repro.service import protocol
from repro.service.audit import AuditLog
from repro.service.coalescer import (
    BULK_OP_ADMIT,
    BULK_OP_RELEASE,
    MicroBatchCoalescer,
)
from repro.service.conn import Connection
from repro.service.router import ClusterRouter
from repro.service.server import AdmissionService
from repro.topology import LinkServerGraph, mci_backbone
from repro.traffic import ClassRegistry, video_class, voice_class
from repro.traffic.flows import PRIORITY_TAGS, FlowSpec
from repro.traffic.generators import all_ordered_pairs

#: Frames decided before a window opens, and frames a window counts.
WARM_FRAMES = 2
COUNTED_FRAMES = 4

CHURN_ALPHA = 0.035
CHURN_FRAME_OPS = 512
CHURN_RUN_OPS = 32
CHURN_ESTABLISHED = 2_000

BULK_ALPHA = 0.3
BULK_FRAME_OPS = 1_024
BULK_ESTABLISHED = 3_000
BULK_SEED = 44

CLUSTER_WORKERS = 2

FLOW_HEAP_FLOWS = 6_000
WIRE_FRAME_FLOWS = 1_024

INDEX_PEAK_FLOWS = 8_000
INDEX_PEAK_OPS = 30_000
INDEX_PEAK_RUN = 8

#: The trace's stationary population (``bulk_churn`` holds ≈ 8 200 at
#: its end) and the churn frames it serves once that is reached.
TRACE_ESTABLISHED = 8_000
TRACE_FRAMES = 48

#: Established flows of the ``scaling`` window, the ops of its frame,
#: and how much more its calls per op may be at the most flows than at
#: the fewest.
SCALING_FLOWS = (500, 2_000, 6_000)
SCALING_FRAME_OPS = 200
MAX_SCALING_RATIO = 1.05

#: Worker calls per op over router calls per op, at least: below it the
#: cluster cannot beat one process on any number of cores.
MIN_CEILING_X = 2.0

def _codes(cls, *names):
    return frozenset(getattr(cls, name).__code__ for name in names)


_LOOKUPS = _codes(MetricsRegistry, "counter", "gauge", "histogram")
_CONTROLLER_ENTRIES = _codes(
    AdmissionController, "admit_batch_routed", "release_batch"
)
_KERNEL_ENTRIES = _codes(
    UtilizationAdmissionController, "_admit_batch_impl", "_release_batch_impl"
)

#: The solve every start-up certification runs, and the one-server map
#: it evaluates once per server per pass.
_SOLVE = theorem3.theorem3_fixed_point.__code__
_SERVER_MAP = next(
    const for const in _SOLVE.co_consts
    if getattr(const, "co_name", None) == "delay"
)

#: ``serve --alpha`` of the ``certify`` window.
CERTIFY_ALPHA = 0.3

#: ``maximize_multiclass_scale``'s weights and resolution in the
#: ``search`` window.
SEARCH_SCALE_WEIGHTS = {"voice": 1.0, "video": 2.0}
SEARCH_SCALE_RESOLUTION = 1e-3

Entries = List[Tuple[int, str, object]]


def interpreter_key() -> str:
    """The key pins are filed under: call counts are specific to the
    interpreter's minor version and numpy's."""
    numpy_minor = ".".join(version("numpy").split(".")[:2])
    return "py{}.{}-numpy{}".format(*sys.version_info[:2], numpy_minor)


class _Counter:
    """``sys.setprofile`` hook counting Python calls (generator resumes
    included), C calls, metrics-registry lookups, and controller and
    kernel entries."""

    def __init__(self):
        self.calls = 0
        self.c_calls = 0
        self.lookups = 0
        self.controller_entries = 0
        self.kernel_entries = 0

    def __call__(self, frame, event, _arg):
        if event == "c_call":
            self.c_calls += 1
        elif event == "call":
            self.calls += 1
            code = frame.f_code
            if code in _LOOKUPS:
                self.lookups += 1
            elif code in _CONTROLLER_ENTRIES:
                self.controller_entries += 1
            elif code in _KERNEL_ENTRIES:
                self.kernel_entries += 1

    def entries(self, window: str) -> Dict[str, int]:
        return {
            f"{window}_controller_entries": self.controller_entries,
            f"{window}_kernel_entries": self.kernel_entries,
        }


def _controller(alpha: float, cls=UtilizationAdmissionController, **shard):
    net = mci_backbone()
    pairs = all_ordered_pairs(net)
    controller = cls(
        LinkServerGraph(net),
        ClassRegistry.two_class(voice_class()),
        {"voice": alpha},
        shortest_path_routes(net, pairs),
        **shard,
    )
    return controller, pairs


def _decide(coalescer, entries: Entries, counter=None) -> list:
    slots = coalescer.open_bulk(len(entries))
    if counter is not None:
        sys.setprofile(counter)
    try:
        coalescer.submit_bulk(slots, entries)
    finally:
        sys.setprofile(None)
    assert slots.remaining == 0, "the frame was not decided inline"
    return slots.outcomes


class _SoakChurn:
    """Runs of admits, then the releases back to the window."""

    def __init__(self, controller, pairs):
        self.controller = controller
        self.pairs = pairs
        self.window: List[str] = []
        self.serial = 0

    def frame(self) -> Entries:
        entries: Entries = []
        while len(entries) < CHURN_FRAME_OPS:
            for i in range(self.serial, self.serial + CHURN_RUN_OPS):
                src, dst = self.pairs[i % len(self.pairs)]
                flow = FlowSpec(f"soak-{i}", "voice", src, dst)
                entries.append((len(entries), BULK_OP_ADMIT, flow))
                self.window.append(flow.flow_id)
            self.serial += CHURN_RUN_OPS
            excess = len(self.window) - CHURN_ESTABLISHED
            if excess > 0:
                gone, self.window = (
                    self.window[:excess], self.window[excess:]
                )
                for fid in gone:
                    if self.controller.is_established(fid):
                        entries.append((len(entries), BULK_OP_RELEASE, fid))
        return entries


class _BulkChurn:
    """Admits and releases interleaved at random, over a stationary
    population of established flows."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.rng = random.Random(BULK_SEED)
        self.live: List[str] = []
        self.serial = 0

    def _admit(self, entries: Entries) -> None:
        src, dst = self.rng.choice(self.pairs)
        flow = FlowSpec(f"bulk-{self.serial}", "voice", src, dst)
        self.serial += 1
        entries.append((len(entries), BULK_OP_ADMIT, flow))

    def fill(self, flows: int = BULK_ESTABLISHED) -> Entries:
        entries: Entries = []
        while len(entries) < flows:
            self._admit(entries)
        return entries

    def frame(self) -> Entries:
        entries: Entries = []
        while len(entries) < BULK_FRAME_OPS:
            if self.rng.random() < 0.5 or not self.live:
                self._admit(entries)
            else:
                at = self.rng.randrange(len(self.live))
                self.live[at], self.live[-1] = self.live[-1], self.live[at]
                entries.append((len(entries), BULK_OP_RELEASE, self.live.pop()))
        return entries

    def settle(self, entries: Entries, took_effect: List[bool]) -> None:
        """Keep the admitted flows; every release must have released."""
        for (_slot, kind, payload), done in zip(entries, took_effect):
            if kind == BULK_OP_ADMIT and done:
                self.live.append(payload.flow_id)
            elif kind == BULK_OP_RELEASE:
                assert done, payload


def _took_effect(outcomes: list) -> List[bool]:
    """Per coalescer outcome: an admit admitted, or a release done."""
    return [o is True or o.admitted for o in outcomes]


def _count_churn() -> Dict[str, int]:
    controller, pairs = _controller(CHURN_ALPHA)
    coalescer = MicroBatchCoalescer(controller, max_delay=0.0)
    churn = _SoakChurn(controller, pairs)
    counter = _Counter()
    ops = 0
    for i in range(WARM_FRAMES + COUNTED_FRAMES):
        entries = churn.frame()
        counted = i >= WARM_FRAMES
        _decide(coalescer, entries, counter if counted else None)
        ops += len(entries) if counted else 0
    return {"churn_ops": ops, "churn_calls": counter.calls, **counter.entries("churn")}


def _count_bulk(audit_path: str) -> Dict[str, int]:
    controller, pairs = _controller(BULK_ALPHA)
    coalescer = MicroBatchCoalescer(controller, max_delay=0.0)
    churn = _BulkChurn(pairs)
    fill = churn.fill()
    churn.settle(fill, _took_effect(_decide(coalescer, fill)))

    def window(counter) -> int:
        ops = 0
        for i in range(WARM_FRAMES + COUNTED_FRAMES):
            entries = churn.frame()
            counted = i >= WARM_FRAMES
            outcomes = _decide(coalescer, entries, counter if counted else None)
            churn.settle(entries, _took_effect(outcomes))
            ops += len(entries) if counted else 0
        return ops

    bare = _Counter()
    out = {
        "bulk_ops": window(bare), "bulk_calls": bare.calls,
        "bulk_c_calls": bare.c_calls, **bare.entries("bulk"),
    }
    audited = _Counter()
    with AuditLog(audit_path) as audit:
        coalescer.audit = audit
        obs.enable(fresh=True)
        try:
            out["bulk_audited_ops"] = window(audited)
        finally:
            obs.disable()
            obs.reset()
            coalescer.audit = None
    out["bulk_audited_calls"] = audited.calls
    out["bulk_audited_lookups"] = audited.lookups
    return out


class _Sink:
    """The write half of a connection, keeping what is written."""

    def __init__(self):
        self.frames: List[bytes] = []

    def write(self, frame: bytes) -> None:
        self.frames.append(frame)

    async def drain(self) -> None:
        pass


def _v2_conn(proto: int = 2) -> Tuple[Connection, _Sink]:
    sink = _Sink()
    conn = Connection(None, sink)
    conn.proto = proto
    return conn, sink


def _run(coro) -> None:
    """Drive a handler's coroutine to its end.  It must not suspend:
    every answer it awaits is already there."""
    try:
        coro.send(None)
    except StopIteration:
        return
    coro.close()
    raise AssertionError("the handler waited on something")


def _packed_of(entries: Entries) -> list:
    """``entries`` as the packed sub-ops a v2 client sends."""
    return [
        [protocol.BULK_ADMIT, f.flow_id, f.class_name, f.source,
         f.destination, None]
        if kind == BULK_OP_ADMIT
        else [protocol.BULK_RELEASE, f]
        for _slot, kind, f in entries
    ]


def _slots(frame: bytes) -> list:
    """The slots of one ``R`` frame."""
    tag, body = protocol.decode_payload_v2(
        frame[protocol.FRAME_HEADER_BYTES:]
    )
    assert tag == protocol.TAG_RESULTS, tag
    return protocol.parse_bulk_request(body)[1]


class _Cluster:
    """A front door over two shard services, in one process: each
    owner's ``B`` frame is handed to its service and the ``R`` frame it
    writes back settles the link, as the sockets would."""

    def __init__(self):
        self.services = [
            AdmissionService(_controller(
                BULK_ALPHA, SlotShardController,
                shard_index=i, shard_count=CLUSTER_WORKERS,
            )[0])
            for i in range(CLUSTER_WORKERS)
        ]
        self.router = ClusterRouter(
            [f"worker-{i}.sock" for i in range(CLUSTER_WORKERS)]
        )
        self.rid = 0

    def decide(self, subops: list, router=None, worker=None) -> list:
        self.rid += 1
        client, sink = _v2_conn()
        sys.setprofile(router)
        pending = self.router.begin_bulk(client, self.rid, subops, None)
        sys.setprofile(None)
        for link, service in zip(self.router.links, self.services):
            while not link._outbox.empty():
                sys.setprofile(router)
                rid, frame, future = link._outbox.get_nowait()
                link._pending[rid] = future
                sys.setprofile(None)
                tag, body = protocol.decode_payload_v2(
                    frame[protocol.FRAME_HEADER_BYTES:]
                )
                assert tag == protocol.TAG_BULK, tag
                conn, answer = _v2_conn()
                sys.setprofile(worker)
                _run(service.begin_bulk(conn, rid, body[1], None))
                sys.setprofile(None)
                (reply,) = answer.frames
                sys.setprofile(router)
                link._settle(
                    {"id": rid, "ok": True, "_packed": _slots(reply)}
                )
                sys.setprofile(None)
        sys.setprofile(router)
        _run(pending)
        sys.setprofile(None)
        (reply,) = sink.frames
        return _slots(reply)


def _serve(service: AdmissionService, subops: list, rid: int,
           counter=None) -> list:
    conn, sink = _v2_conn()
    sys.setprofile(counter)
    _run(service.begin_bulk(conn, rid, subops, None))
    sys.setprofile(None)
    (reply,) = sink.frames
    return _slots(reply)


def _lone(service: AdmissionService, proto: int, rid: int, body: dict,
          counter=None) -> dict:
    """One request of its own, from its bytes to the response written:
    a v1 line, or a v2 JSON carrier frame."""
    conn, sink = _v2_conn(proto)
    wire = (protocol.encode_frame_v2 if proto == 2 else protocol.encode_frame)(
        {"id": rid, **body}
    )
    sys.setprofile(counter)
    if proto == 2:
        _tag, obj = protocol.decode_payload_v2(wire[protocol.FRAME_HEADER_BYTES:])
        request = protocol.request_from_obj(obj)
    else:
        request = protocol.parse_request(wire)
    _run(service.begin_request(conn, request, None))
    sys.setprofile(None)
    (reply,) = sink.frames
    if proto == 2:
        reply = protocol.decode_payload_v2(reply[protocol.FRAME_HEADER_BYTES:])[1]
    else:
        reply = protocol.decode_frame(reply)
    assert reply["ok"], reply
    return reply["result"]


def _count_lone() -> Dict[str, int]:
    """The ``lone_v1`` and ``lone_v2`` windows: after the ``bulk`` fill
    and one uncounted admit and release per protocol, one admit and its
    release per protocol, each a request of its own."""
    service = AdmissionService(_controller(BULK_ALPHA)[0])
    churn = _BulkChurn(all_ordered_pairs(mci_backbone()))
    _serve(service, _packed_of(churn.fill()), 0)
    src, dst = churn.pairs[0]
    out = {}
    rid = 1
    for counted in (False, True):
        for proto in (1, 2):
            counter = _Counter() if counted else None
            fid = f"lone-v{proto}-{counted}"
            flow = {"id": fid, "cls": "voice", "src": src, "dst": dst}
            admitted = _lone(service, proto, rid, {"op": "admit", "flow": flow}, counter)
            released = _lone(service, proto, rid + 1, {"op": "release", "flow_id": fid}, counter)
            assert admitted["admitted"] and released["released"], (admitted, released)
            rid += 2
            if counted:
                out[f"lone_v{proto}_calls"] = counter.calls
                out[f"lone_v{proto}_c_calls"] = counter.c_calls
    return out


def _filled(established: int):
    """A controller on MCI at ``BULK_ALPHA`` holding ``established``
    elastic voice flows, ``fill-<i>`` on pair ``i`` modulo the pairs,
    written with ``add_routed`` in frames of ``BULK_FRAME_OPS`` and
    committed to the ledger beside it: no admit is replayed."""
    controller, pairs = _controller(BULK_ALPHA)
    table, code = controller._flows, controller._class_code("voice")
    routes = table.configured_routes(
        [table.pair_codes[pairs[i % len(pairs)]] for i in range(established)]
    )
    for start in range(0, established, BULK_FRAME_OPS):
        run = routes[start:start + BULK_FRAME_OPS]
        ids = [f"fill-{i}" for i in range(start, start + len(run))]
        table.add_routed(ids, code, run, PRIORITY_TAGS["elastic"])
        controller.ledger.commit_flat(
            "voice", list(chain.from_iterable(table.route_rows(run))), len(run)
        )
    assert controller.verify_invariants() == []
    return controller, pairs


def _scaling_frame(prefix: str, released: int, pairs) -> Entries:
    """``SCALING_FRAME_OPS`` ops: two admits of ``<prefix>-<k>``, then
    two releases of ``fill-<released + k>``, over and over."""
    entries: Entries = []
    for k in range(0, SCALING_FRAME_OPS // 2, 2):
        for j in (k, k + 1):
            src, dst = pairs[j % len(pairs)]
            entries.append((len(entries), BULK_OP_ADMIT, FlowSpec(f"{prefix}-{j}", "voice", src, dst)))
        for j in (k, k + 1):
            entries.append((len(entries), BULK_OP_RELEASE, f"fill-{released + j}"))
    return entries


def _count_scaling() -> Dict[str, int]:
    """The ``scaling_<N>`` windows and ``preempt_<N>_calls``."""
    out = {}
    for established in SCALING_FLOWS:
        controller, pairs = _filled(established)
        coalescer = MicroBatchCoalescer(controller, max_delay=0.0)
        _decide(coalescer, _scaling_frame("warm", SCALING_FRAME_OPS // 2, pairs))
        counter = _Counter()
        outcomes = _decide(coalescer, _scaling_frame("scale", 0, pairs), counter)
        assert all(_took_effect(outcomes)), "the frame must admit and release all it asks"
        assert controller.num_established == established
        out[f"scaling_{established}_calls"] = counter.calls
        src, dst = pairs[0]
        serial = 0
        while controller.admit(FlowSpec(f"sat-{serial}", "voice", src, dst, priority="elastic")).admitted:
            serial += 1
        hard = FlowSpec("hard", "voice", src, dst, priority="hard_rt")
        assert not controller.admit(hard).admitted
        preemptor, counter = Preemptor(controller), _Counter()
        sys.setprofile(counter)
        try:
            outcome = preemptor.try_admit(hard)
        finally:
            sys.setprofile(None)
        assert outcome.admitted and len(outcome.evicted) == 1, outcome
        out[f"preempt_{established}_calls"] = counter.calls
    out["scaling_ops"] = SCALING_FRAME_OPS
    return out


def scaling_ratio(counts: Dict[str, int]) -> float:
    """Calls per op of the ``scaling`` frame at the most established
    flows over those at the fewest."""
    return counts[f"scaling_{SCALING_FLOWS[-1]}_calls"] / counts[f"scaling_{SCALING_FLOWS[0]}_calls"]


class _Solves:
    """``sys.setprofile`` hook counting the returns of ``solve`` (a
    code object), the iterations they report, and the calls of
    ``server``, a solver's one-server map, and of ``build``, what
    compiles the solver's routes."""

    def __init__(self, solve=_SOLVE, server=_SERVER_MAP, build=None):
        self.solve = solve
        self.server = server
        self.build = build
        self.solves = 0
        self.iterations = 0
        self.servers = 0
        self.builds = 0

    def __call__(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is self.server:
                self.servers += 1
            elif code is self.build:
                self.builds += 1
        elif event == "return" and frame.f_code is self.solve:
            self.solves += 1
            self.iterations += arg.iterations


def _count_certify() -> Dict[str, int]:
    """The ``certify`` window: what ``serve --governor`` certifies on
    MCI before it listens."""
    setup = cli._admission_setup("mci")
    args = argparse.Namespace(alpha=CERTIFY_ALPHA, governor=True)
    counter = _Solves()
    sys.setprofile(counter)
    try:
        ladder = cli._certified_ladder(args, setup)
    finally:
        sys.setprofile(None)
    assert len(ladder) == 5, ladder
    return {
        "certify_solves": counter.solves,
        "certify_iterations": counter.iterations,
        "certify_servers": counter.servers,
    }


def _count_search() -> Dict[str, int]:
    """The ``search`` window: the numpy solves, iterations and route
    system builds of three searches over MCI's shortest-path routes.
    Imported here: the ``frame_heap_bytes`` interpreter must never load
    numpy."""
    from repro.analysis import fixedpoint
    from repro.analysis.routesystem import RouteSystem
    from repro.config import (
        critical_alpha,
        max_utilization_shortest_path,
        maximize_multiclass_scale,
    )

    network = mci_backbone()
    graph = LinkServerGraph(network)
    pairs = all_ordered_pairs(network)
    paths = list(shortest_path_routes(network, pairs).values())
    voice = voice_class()
    registry = ClassRegistry([voice, video_class()])
    searches = {
        "critical": lambda: critical_alpha(graph, paths, voice),
        "sp": lambda: max_utilization_shortest_path(network, pairs, voice),
        "scale": lambda: maximize_multiclass_scale(
            network, {"voice": paths, "video": paths}, registry,
            SEARCH_SCALE_WEIGHTS, resolution=SEARCH_SCALE_RESOLUTION,
        ),
    }
    out = {}
    for name, search in searches.items():
        counter = _Solves(fixedpoint._solve.__code__, build=RouteSystem.__init__.__code__)
        sys.setprofile(counter)
        try:
            search()
        finally:
            sys.setprofile(None)
        out[f"search_{name}_solves"] = counter.solves
        out[f"search_{name}_iterations"] = counter.iterations
        out[f"search_{name}_builds"] = counter.builds
    return out


def _count_frame_heap() -> Dict[str, int]:
    """``frame_heap_bytes``: the tracemalloc peak of one ``bulk``-shaped
    packed frame served by one plain serve, after the fill and the
    warm-up frames, from ``decode_payload_v2`` of its payload through
    ``AdmissionService.begin_bulk`` to the ``R`` frame it writes.  The
    decoded frame is let go once ``begin_bulk`` has returned, as the
    read loop lets go of it; the response coroutine then runs to its
    write."""
    service = AdmissionService(_controller(BULK_ALPHA)[0])
    churn = _BulkChurn(all_ordered_pairs(mci_backbone()))
    for i in range(1 + WARM_FRAMES):
        entries = churn.fill() if i == 0 else churn.frame()
        slots = _serve(service, _packed_of(entries), i)
        churn.settle(entries, [
            slot[0] in (protocol.SLOT_ADMITTED, protocol.SLOT_RELEASED)
            for slot in slots
        ])
    rid = 1 + WARM_FRAMES
    payload = protocol.encode_bulk_request(
        rid, _packed_of(churn.frame())
    )[protocol.FRAME_HEADER_BYTES:]
    conn, sink = _v2_conn()
    tracemalloc.start()
    try:
        _tag, body = protocol.decode_payload_v2(payload)
        work = service.begin_bulk(
            conn, *protocol.parse_bulk_request(body), None
        )
        del body
        _run(work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sink.frames) == 1, "the frame was not answered"
    # What was read is the served frame's heap, not an array library's.
    assert "numpy" not in sys.modules
    return {"frame_heap_bytes": peak}


def bytes_per_wire_established_flow(controller, pairs, flows: int) -> float:
    """Establish ``flows`` flows the way a served process does —
    packed ``B`` frames encoded, then ``decode_payload_v2`` ->
    ``decode_bulk_subop`` -> ``submit_bulk``, so every string of every
    flow is freshly decoded — and return what the traced heap grew by
    per established flow (the caller has ``tracemalloc`` tracing)."""
    priorities = ("elastic", "soft_rt", "hard_rt", None)

    def frame(start):
        subops = []
        for i in range(start, min(start + WIRE_FRAME_FLOWS, flows)):
            src, dst = pairs[i % len(pairs)]
            subops.append(
                [0, f"wire-{i}", "voice", src, dst, None,
                 priorities[i % len(priorities)]]
            )
        return protocol.encode_bulk_request(start, subops)

    async def scenario():
        coalescer = MicroBatchCoalescer(controller, max_delay=0.0)
        coalescer.start()
        try:
            for start in range(0, flows, WIRE_FRAME_FLOWS):
                wire = frame(start)
                _tag, body = protocol.decode_payload_v2(
                    wire[protocol.FRAME_HEADER_BYTES:]
                )
                _rid, subops = protocol.parse_bulk_request(body)
                entries = [
                    (i, BULK_OP_ADMIT, protocol.decode_bulk_subop(sub)[1])
                    for i, sub in enumerate(subops)
                ]
                slots = coalescer.open_bulk(len(entries))
                coalescer.submit_bulk(slots, entries)
                assert slots.remaining == 0  # decided inline
                del wire, body, subops, entries, slots
        finally:
            await coalescer.stop()

    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    asyncio.run(scenario())
    gc.collect()
    growth = tracemalloc.get_traced_memory()[0] - before
    # Every flow fits at alpha 0.3.
    assert controller.num_established == flows
    assert controller.verify_invariants() == []
    return growth / controller.num_established


def _count_flow_heap() -> Dict[str, int]:
    """``flow_heap_bytes``: :func:`bytes_per_wire_established_flow` at
    ``FLOW_HEAP_FLOWS`` flows, in whole bytes, truncated: the figure
    repeats only to about 0.01 B a flow (some 50 B over the fill move
    from run to run, outside the flow table), so a figure near a half
    byte would round either way."""
    controller, pairs = _controller(BULK_ALPHA)
    tracemalloc.start()
    try:
        per_flow = bytes_per_wire_established_flow(
            controller, pairs, FLOW_HEAP_FLOWS
        )
    finally:
        tracemalloc.stop()
    return {"flow_heap_bytes": int(per_flow)}


def _count_index_peak(segment_inserts: Optional[int] = None) -> Dict[str, int]:
    """``index_peak_bytes``: while ``INDEX_PEAK_OPS`` admits and
    releases, in runs of ``INDEX_PEAK_RUN``, churn a filled
    ``INDEX_PEAK_FLOWS``-flow table at a stationary population, the
    largest tracemalloc peak of one ``add_routed`` or ``pop_batch``
    call above the heap before and after it — what the index holds at
    once beyond what it keeps.  ``segment_inserts`` replaces
    ``flowtable.SEGMENT_INSERTS`` (a huge value makes the index one
    dict)."""
    if segment_inserts is not None:
        flowtable.SEGMENT_INSERTS = segment_inserts
    rng = random.Random(BULK_SEED)
    tracemalloc.start()
    try:
        table = flowtable.FlowTable(pad=9)
        pair = table.pair_code(("a", "b"))
        table.configure(pair, (1, 2))
        route = int(table.configured_routes([pair])[0])
        live = [f"flow-{i}" for i in range(INDEX_PEAK_FLOWS)]
        for start in range(0, INDEX_PEAK_FLOWS, BULK_FRAME_OPS):
            run = live[start:start + BULK_FRAME_OPS]
            table.add_routed(run, 0, [route] * len(run))
        serial, worst = INDEX_PEAK_FLOWS, 0
        routes = [route] * INDEX_PEAK_RUN
        for _ in range(INDEX_PEAK_OPS // (2 * INDEX_PEAK_RUN)):
            run = [f"flow-{i}" for i in range(serial, serial + INDEX_PEAK_RUN)]
            serial += INDEX_PEAK_RUN
            gone = []
            for _ in range(INDEX_PEAK_RUN):
                at = rng.randrange(len(live))
                live[at], live[-1] = live[-1], live[at]
                gone.append(live.pop())
            live.extend(run)
            for call, args in ((table.add_routed, (run, 0, routes)), (table.pop_batch, (gone,))):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call(*args)
                now, peak = tracemalloc.get_traced_memory()
                worst = max(worst, peak - max(before, now))
    finally:
        tracemalloc.stop()
    assert len(table) == INDEX_PEAK_FLOWS and table.verify() == []
    return {"index_peak_bytes": worst}


def _status_kb(*fields: str) -> List[int]:
    """``fields`` of ``/proc/self/status``, in kB."""
    found = {}
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            name, _, value = line.partition(":")
            found[name] = value
    return [int(found[name].split()[0]) for name in fields]


def _vmhwm_trace() -> List[Dict[str, int]]:
    """:func:`vmhwm_trace` in this process."""
    service = AdmissionService(_controller(BULK_ALPHA)[0])
    churn = _BulkChurn(all_ordered_pairs(mci_backbone()))
    fill = churn.fill(TRACE_ESTABLISHED)
    frames = [fill[i:i + BULK_FRAME_OPS] for i in range(0, len(fill), BULK_FRAME_OPS)]
    rows = []
    hwm, file = _status_kb("VmHWM", "RssFile")
    for rid in range(len(frames) + TRACE_FRAMES):
        entries = frames[rid] if rid < len(frames) else churn.frame()
        slots = _serve(service, _packed_of(entries), rid)
        churn.settle(entries, [
            slot[0] in (protocol.SLOT_ADMITTED, protocol.SLOT_RELEASED)
            for slot in slots
        ])
        now, now_file = _status_kb("VmHWM", "RssFile")
        step = now - hwm
        paged = min(step, max(0, now_file - file))
        rows.append({
            "frame": rid, "fill": rid < len(frames),
            "established": service.controller.num_established,
            "hwm_kb": step, "anon_kb": step - paged, "file_kb": paged,
        })
        hwm, file = now, now_file
    return rows


def vmhwm_trace() -> List[Dict[str, int]]:
    """Per frame, in a fresh interpreter: ``bulk``-shaped packed frames
    served by a plain serve on MCI at alpha 0.3 — frames of
    ``BULK_FRAME_OPS`` admits to ``TRACE_ESTABLISHED`` flows, then
    ``TRACE_FRAMES`` frames of admits and releases interleaved at
    random — and after each the step of ``VmHWM`` (kB), split into the
    file-backed pages the frame paged in (``file_kb``, at most the
    step) and the rest (``anon_kb``, anonymous: heap and the like).
    Empty where there is no ``/proc/self/status``."""
    if not os.path.exists("/proc/self/status"):
        return []
    return _in_a_fresh_process("w._quiet(w._vmhwm_trace)")


def _in_a_fresh_process(call: str) -> Any:
    """``call`` (an expression over ``w``, this module) alone in a
    fresh interpreter, on the checkout this process imports.  What a
    window allocates depends on what earlier work left in CPython's
    free lists, so only a process that ran nothing else repeats it to
    the byte."""
    paths = [str(Path(repro.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = f"import json, work_counts as w; print(json.dumps({call}))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _count_cluster() -> Dict[str, int]:
    """The ``router``, ``worker`` and ``serve`` windows.  The frames
    follow the cluster's answers; the plain serve decides the same
    packed frames."""
    cluster = _Cluster()
    single = AdmissionService(_controller(BULK_ALPHA)[0])
    churn = _BulkChurn(all_ordered_pairs(mci_backbone()))
    router, worker, serve = _Counter(), _Counter(), _Counter()
    ops = 0
    for i in range(1 + WARM_FRAMES + COUNTED_FRAMES):
        entries = churn.fill() if i == 0 else churn.frame()
        subops = _packed_of(entries)
        counted = i > WARM_FRAMES
        slots = cluster.decide(
            subops, router if counted else None, worker if counted else None
        )
        _serve(single, subops, i, serve if counted else None)
        churn.settle(entries, [
            slot[0] in (protocol.SLOT_ADMITTED, protocol.SLOT_RELEASED)
            for slot in slots
        ])
        ops += len(entries) if counted else 0
    return {
        "cluster_ops": ops,
        "router_calls": router.calls,
        "worker_calls": worker.calls,
        "serve_calls": serve.calls,
    }


def _quiet(windows) -> Dict[str, int]:
    """``windows()`` run in an event loop with the cycle collector off,
    after one collection: otherwise the finalizers of garbage some
    earlier work left behind (asyncio objects in a test session) run
    inside a window and are counted."""

    async def run() -> Dict[str, int]:
        return windows()

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(run())
    finally:
        if enabled:
            gc.enable()


def count_work() -> Dict[str, int]:
    """Every count of the windows, ``frame_heap_bytes``,
    ``flow_heap_bytes`` and ``index_peak_bytes``, as a flat
    ``{name: int}`` (each window's ``*_ops`` beside its totals)."""

    def windows() -> Dict[str, int]:
        with tempfile.TemporaryDirectory() as tmp:
            counts = _count_churn()
            counts.update(_count_bulk(os.path.join(tmp, "audit.jsonl")))
            counts.update(_count_cluster())
            counts.update(_count_lone())
            counts.update(_count_certify())
            counts.update(_count_search())
            counts.update(_count_scaling())
        return counts

    return {
        **_quiet(windows),
        **_in_a_fresh_process("w._quiet(w._count_frame_heap)"),
        **_in_a_fresh_process("w._count_flow_heap()"),
        **count_index_peak(),
    }


def count_index_peak(segment_inserts: Optional[int] = None) -> Dict[str, int]:
    """``index_peak_bytes`` alone, in a fresh interpreter (see
    :func:`_count_index_peak` for ``segment_inserts``)."""
    return _in_a_fresh_process(f"w._count_index_peak({segment_inserts!r})")


def count_bulk() -> Dict[str, int]:
    """The ``bulk`` and ``bulk_audited`` windows alone."""
    with tempfile.TemporaryDirectory() as tmp:
        return _quiet(lambda: _count_bulk(os.path.join(tmp, "audit.jsonl")))


def count_lone() -> Dict[str, int]:
    """The ``lone_v1`` and ``lone_v2`` windows alone."""
    return _quiet(_count_lone)


def count_certify() -> Dict[str, int]:
    """The ``certify`` window alone."""
    return _quiet(_count_certify)


def count_search() -> Dict[str, int]:
    """The ``search`` window alone."""
    return _quiet(_count_search)


def count_scaling() -> Dict[str, int]:
    """The ``scaling`` windows and ``preempt_<N>_calls`` alone."""
    return _quiet(_count_scaling)


def audited_extra_calls(counts: Dict[str, int]) -> float:
    """Calls per op the audited, obs-on path makes beyond the bare one."""
    return (
        counts["bulk_audited_calls"] / counts["bulk_audited_ops"]
        - counts["bulk_calls"] / counts["bulk_ops"]
    )


def count_cluster() -> Dict[str, int]:
    """The ``router``, ``worker`` and ``serve`` windows alone."""
    return _quiet(_count_cluster)


def ceiling_x(counts: Dict[str, int]) -> float:
    """Worker calls per op over router calls per op."""
    return counts["worker_calls"] / counts["router_calls"]


def per_op(counts: Dict[str, int]) -> Dict[str, float]:
    """Calls and lookups per decided op, and entries per thousand ops,
    from :func:`count_work`'s totals."""
    rates = {}
    for window in ("churn", "bulk", "bulk_audited"):
        ops = counts[f"{window}_ops"]
        for what, scale, suffix in (
            ("calls", 1, ""),
            ("lookups", 1, ""),
            ("controller_entries", 1_000, "_per_kop"),
            ("kernel_entries", 1_000, "_per_kop"),
        ):
            name = f"{window}_{what}"
            if name in counts:
                rates[name + suffix] = scale * counts[name] / ops
    for window in ("router", "worker", "serve"):
        calls = counts[f"{window}_calls"]
        rates[f"{window}_calls"] = calls / counts["cluster_ops"]
    return rates


if __name__ == "__main__":
    found = count_work()
    print(json.dumps(
        {"key": interpreter_key(), "counts": found,
         "per_op": {k: round(v, 3) for k, v in per_op(found).items()},
         "ceiling_x": round(ceiling_x(found), 3)},
        indent=2,
    ))
    trace = vmhwm_trace()
    print("VmHWM steps (kB) of the frames that raised it:")
    for row in trace:
        if row["hwm_kb"]:
            print("  frame {frame:3d} {phase:5s} {established:5d} flows: +{hwm_kb} "
                  "(anon {anon_kb}, file {file_kb})".format(
                      phase="fill" if row["fill"] else "churn", **row))
    print("  total +{} kB over {} frames".format(sum(r["hwm_kb"] for r in trace), len(trace)))
