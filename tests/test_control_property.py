"""Property suite for the overload control plane.

Three machine-checked safety contracts:

* after *any* INC/HOLD/DEC sample sequence, the ledger's effective
  capacity never exceeds the certified slot count of the governor's
  current rung (and the applied alpha is always a ladder rung);
* preemption never evicts a ``hard_rt`` flow, and every controller
  invariant holds after every preemption step;
* a server with the governor and preemptor *configured but quiescent*
  is wire-identical — decisions, ledger, audit trail — to a server
  without them, across both protocol versions.
"""

import asyncio
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import UtilizationAdmissionController
from repro.config import configure
from repro.control import (
    AlphaGovernor,
    GovernorConfig,
    GovernorSample,
    PreemptionPolicy,
    Preemptor,
    certify_ladder,
)
from repro.errors import ReproError
from repro.routing.shortest import shortest_path_routes
from repro.service import AdmissionService, AsyncServiceClient, ServiceConfig
from repro.service.audit import iter_audit, verify_audit
from repro.topology import LinkServerGraph, line_network, ring_network
from repro.traffic import ClassRegistry, TrafficClass, voice_class
from repro.traffic.flows import PRIORITIES, FlowSpec, priority_rank
from repro.traffic.generators import all_ordered_pairs

RING_PAIRS = [(f"r{i}", f"r{(i + 2) % 6}") for i in range(6)]


def ring_cfg(alpha=0.3):
    net = ring_network(6, capacity=1e6)
    reg = ClassRegistry([voice_class()])
    return configure(
        net, reg, {"voice": alpha}, pairs=RING_PAIRS,
        routing="shortest-path",
    )


def make_controller(cfg):
    return UtilizationAdmissionController(
        cfg.graph, cfg.registry, cfg.alphas, cfg.routes
    )


# --------------------------------------------------------------------- #
# governor: ledger never exceeds the rung's certified slots
# --------------------------------------------------------------------- #

_CFG = ring_cfg(alpha=0.3)
_LADDER = certify_ladder(
    _CFG.network,
    list(_CFG.routes.values()),
    _CFG.registry,
    _CFG.alphas,
    [0.05, 0.1, 0.2],
)
#: Verified slot vector a standalone deployment at each rung would get.
_RUNG_SLOTS = {
    rung: UtilizationAdmissionController(
        _CFG.graph, _CFG.registry, {"voice": rung}, _CFG.routes
    ).ledger.slots("voice")
    for rung in _LADDER.rungs
}

samples_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.02),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    max_size=60,
)


@settings(deadline=None, max_examples=50)
@given(samples=samples_strategy)
def test_ledger_never_exceeds_rung_certificate(samples):
    assert len(_LADDER) == 4  # all sub-base candidates certified
    controller = make_controller(_CFG)
    governor = AlphaGovernor(_LADDER)
    for delay, headroom in samples:
        factor = governor.observe(
            GovernorSample(queue_delay=delay, headroom=headroom)
        )
        if factor is not None:
            if governor.at_top:
                controller.exit_degraded_mode()
            else:
                controller.enter_degraded_mode(factor)
        # The applied alpha is always a certified rung...
        assert governor.effective_alpha in _LADDER.rungs
        assert 0 <= governor.rung <= _LADDER.top
        # ...and the effective ledger stays inside that rung's own
        # verified slot vector, elementwise.
        effective = controller.ledger.slots("voice")
        certified = _RUNG_SLOTS[governor.effective_alpha]
        assert (effective <= certified).all(), (
            f"rung {governor.rung}: effective {effective} exceeds "
            f"certificate {certified}"
        )


# --------------------------------------------------------------------- #
# preemption: protected priorities survive any op sequence
# --------------------------------------------------------------------- #

_TIGHT_CFG = ring_cfg(alpha=0.1)  # 3 slots per server
FLOW_IDS = [f"f{i}" for i in range(12)]

ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("admit"),
            st.sampled_from(FLOW_IDS),
            st.sampled_from(range(len(RING_PAIRS))),
            st.sampled_from(PRIORITIES),
        ),
        st.tuples(st.just("release"), st.sampled_from(FLOW_IDS)),
    ),
    max_size=40,
)


@settings(deadline=None, max_examples=50)
@given(ops=ops_strategy)
def test_preemption_never_evicts_hard_rt(ops):
    controller = make_controller(_TIGHT_CFG)
    preemptor = Preemptor(controller)
    priorities = {}
    for op in ops:
        if op[0] == "admit":
            _kind, fid, pair_idx, priority = op
            if controller.is_established(fid):
                continue  # duplicate ids are a client error, skip
            src, dst = RING_PAIRS[pair_idx]
            flow = FlowSpec(fid, "voice", src, dst, priority=priority)
            priorities[fid] = priority
            if not controller.admit(flow).admitted:
                outcome = preemptor.try_admit(flow)
                for victim in outcome.evicted:
                    assert priorities[victim] != "hard_rt"
                assert controller.verify_invariants() == []
        else:
            _kind, fid = op
            if controller.is_established(fid):
                controller.release(fid)
        used = controller.ledger.used("voice")
        slots = controller.ledger.slots("voice")
        assert (used <= slots).all()
    assert controller.verify_invariants() == []


# --------------------------------------------------------------------- #
# preemption: the column-scan planner is the loop it replaced
# --------------------------------------------------------------------- #


class ReferencePreemptor(Preemptor):
    """``Preemptor`` with the planner it shipped with until the flow
    table became the flow record: a Python walk over
    ``established_flows``, kept verbatim as the differential's
    reference."""

    def _plan(self, flow, deficit):
        ctrl = self.controller
        policy = self.policy
        saturated = set(deficit)
        arrival_rank = priority_rank(flow.priority)
        candidates = []
        for other in ctrl.established_flows:
            if other.priority in policy.protect:
                continue
            rank = priority_rank(other.priority)
            if rank >= arrival_rank:
                continue
            if other.class_name != flow.class_name:
                continue
            overlap = saturated.intersection(
                ctrl.committed_servers(other.flow_id).tolist()
            )
            if overlap:
                candidates.append(
                    (rank, repr(other.flow_id), other.flow_id, overlap)
                )
        candidates.sort(key=lambda c: (c[0], c[1]))
        remaining = dict(deficit)
        plan = []
        while (
            any(d > 0 for d in remaining.values())
            and len(plan) < policy.max_victims
        ):
            best = None
            best_gain = 0
            for cand in candidates:
                gain = sum(
                    1 for s in cand[3] if remaining.get(s, 0) > 0
                )
                if gain > best_gain:
                    best, best_gain = cand, gain
            if best is None:
                return None
            candidates.remove(best)
            plan.append(best[2])
            for s in best[3]:
                remaining[s] -= 1
        if any(d > 0 for d in remaining.values()):
            return None
        return plan


#: Ids whose ``repr`` order (the tie-break) is neither their numeric
#: nor their insertion order: '10' < '9', 10 < 9 as text, str after int.
PLANNER_IDS = [9, 10, 11, "9", "10", "b", "a", "B"]
_planner_flow = st.builds(
    lambda fid, pair, cls, priority: FlowSpec(
        fid, cls, *RING_PAIRS[pair], priority=priority
    ),
    st.sampled_from(PLANNER_IDS),
    st.sampled_from(range(len(RING_PAIRS))),
    st.sampled_from(["voice", "voice", "voice", "other"]),
    st.sampled_from((None,) + PRIORITIES),
)
planner_ops = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), _planner_flow),
        # A rescue may evict a flow its own batch just admitted.
        st.tuples(st.just("batch"), st.lists(_planner_flow, max_size=6)),
        st.tuples(st.just("release"), st.sampled_from(PLANNER_IDS)),
        # Effective capacity below usage: per-server deficits above one.
        st.tuples(st.just("degrade"), st.sampled_from([0.34, 0.67, 1.0])),
    ),
    max_size=30,
)
planner_policies = st.builds(
    PreemptionPolicy,
    admit_priorities=st.sampled_from(
        [("hard_rt",), ("hard_rt", "soft_rt"), PRIORITIES]
    ),
    protect=st.sampled_from(
        [("hard_rt",), (), ("hard_rt", "soft_rt"), ("elastic",)]
    ),
    max_victims=st.integers(1, 4),
)
_PLANNER_REGISTRY = ClassRegistry(
    [
        voice_class(),
        replace(voice_class(), name="other", priority=2),
        TrafficClass.best_effort(),
    ]
)


def _deficit(controller, flow):
    """The per-server deficit ``try_admit`` hands its planner."""
    servers = controller.servers_for(flow, controller.check_admit(flow))
    ledger = controller.ledger
    free = (
        ledger.capacity_view(flow.class_name)[servers]
        - ledger.used_view(flow.class_name)[servers]
    )
    return {int(s): 1 - int(f) for s, f in zip(servers, free) if f <= 0}


@settings(deadline=None, max_examples=150)
@given(ops=planner_ops, policy=planner_policies)
def test_column_planner_is_the_reference_planner(ops, policy):
    twins = []
    for cls in (Preemptor, ReferencePreemptor):
        controller = UtilizationAdmissionController(
            _TIGHT_CFG.graph,
            _PLANNER_REGISTRY,
            {"voice": 0.1, "other": 0.1},
            _TIGHT_CFG.routes,
        )
        twins.append((controller, cls(controller, policy)))

    def rescue(flow):
        got, want = (p.try_admit(flow) for _c, p in twins)
        assert (got.admitted, got.evicted, got.reason) == (
            want.admitted, want.evicted, want.reason
        )
        for victim in got.evicted:
            assert victim_priority[victim] not in policy.protect

    victim_priority = {}
    for op in ops:
        if op[0] == "release":
            for controller, _p in twins:
                if controller.is_established(op[1]):
                    controller.release(op[1])
        elif op[0] == "degrade":
            for controller, _p in twins:
                controller.enter_degraded_mode(op[1])
        else:
            established = twins[0][0].is_established
            batch = op[1] if op[0] == "batch" else [op[1]]
            batch = [
                f
                for f in {f.flow_id: f for f in batch}.values()
                if not established(f.flow_id)
            ]
            victim_priority.update((f.flow_id, f.priority) for f in batch)
            verdicts = [
                [d.admitted for d in controller.admit_batch(batch)]
                for controller, _p in twins
            ]
            assert verdicts[0] == verdicts[1]
            for flow, admitted in zip(batch, verdicts[0]):
                if not admitted:
                    rescue(flow)
        (real, _), (reference, _) = twins
        assert real.snapshot() == reference.snapshot()
        assert real.verify_invariants() == []
    # Whatever state the sequence reached: every arrival that could
    # come next gets the same plan, without executing it.
    for pair, priority, cls in itertools.product(
        RING_PAIRS, PRIORITIES, ("voice", "other")
    ):
        flow = FlowSpec("arrival", cls, *pair, priority=priority)
        deficit = _deficit(twins[0][0], flow)
        assert deficit == _deficit(twins[1][0], flow)
        if deficit:
            assert twins[0][1]._plan(flow, deficit) == twins[1][1]._plan(
                flow, deficit
            )


# --------------------------------------------------------------------- #
# quiescent control plane is wire-invisible
# --------------------------------------------------------------------- #

_NETWORK = line_network(4)
_PAIRS = all_ordered_pairs(_NETWORK)
_ROUTES = shortest_path_routes(_NETWORK, _PAIRS)
_VOICE = voice_class()
_ALPHA = 0.005  # tight: sequences hit both admits and rejections
_SERVICE_LADDER = certify_ladder(
    _NETWORK, list(_ROUTES.values()), ClassRegistry.two_class(_VOICE),
    {_VOICE.name: _ALPHA}, [_ALPHA / 2],
)
#: A detector that can never fire: infinite delay threshold, zero
#: low-water headroom.  The governor stays pinned at the top rung, so
#: an attached control plane must be bit-invisible on the wire.
_QUIET = GovernorConfig(delay_threshold=1e9, headroom_low=0.0)


def service_controller():
    return UtilizationAdmissionController(
        LinkServerGraph(_NETWORK),
        ClassRegistry.two_class(_VOICE),
        {_VOICE.name: _ALPHA},
        _ROUTES,
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


async def one_run(ops, protocol, audit_path, control_plane):
    controller = service_controller()
    config = ServiceConfig(max_delay=0.005, audit_path=audit_path)
    governor = preemptor = None
    if control_plane:
        governor = AlphaGovernor(_SERVICE_LADDER, _QUIET)
        preemptor = Preemptor(controller)
    service = AdmissionService(
        controller, config, governor=governor, preemptor=preemptor
    )
    await service.start_tcp("127.0.0.1", 0)
    client = await AsyncServiceClient.connect_tcp(
        "127.0.0.1", service.port, protocol=protocol
    )
    outcomes = await run_ops(client, ops)
    await client.close()
    await service.drain()
    if governor is not None:
        assert governor.at_top  # quiescent by construction
        assert governor.dec_count == 0
    return outcomes, ledger_state(controller)


def normalized_audit(path):
    records = []
    for obj in iter_audit(path):
        obj = dict(obj)
        obj.pop("ts", None)
        records.append(obj)
    return records


wire_ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("admit"),
            st.sampled_from(FLOW_IDS[:8]),
            st.sampled_from(range(len(_PAIRS))),
        ),
        st.tuples(st.just("release"), st.sampled_from(FLOW_IDS[:8])),
    ),
    max_size=25,
)

_case_counter = itertools.count()


@settings(deadline=None, max_examples=5)
@given(ops=wire_ops_strategy)
def test_quiescent_control_plane_is_wire_identical(
    ops, tmp_path_factory
):
    base = tmp_path_factory.mktemp("quiescent")
    case = next(_case_counter)
    runs = {}
    for protocol in ("v1", "v2"):
        for control_plane in (False, True):
            audit = str(
                base / f"audit-{case}-{protocol}-{control_plane}.jsonl"
            )
            out, ledger = asyncio.run(
                one_run(ops, protocol, audit, control_plane)
            )
            report = verify_audit(iter_audit(audit))
            assert report["ok"], report["problems"]
            runs[(protocol, control_plane)] = (
                out, ledger, normalized_audit(audit),
            )
    # Control plane attached-but-quiet == absent, per protocol...
    assert runs[("v1", True)] == runs[("v1", False)]
    assert runs[("v2", True)] == runs[("v2", False)]
    # ...and the two protocols agree with each other.
    assert runs[("v1", False)] == runs[("v2", False)]
