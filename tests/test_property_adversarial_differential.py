"""Differential property: adversarial traces decide identically everywhere.

For any ``(w, b)``-bounded adversarial trace — burst-packed arrivals on
the hottest links, thundering-herd releases — the admission decisions
must be **bit-identical** through every execution path that claims to
implement the paper's rule over a shared ledger:

* the sequential admit/release loop,
* the vectorized batch kernel (whole bursts per epoch),
* a slot shard (sequential vs batch against *itself* — its row of the
  slot partition legitimately admits less than the shared ledger, so
  it is compared within its own type), and
* the asyncio service over the wire (micro-batch coalescer included).

Extends the PR 4/5 differential suites with a Hypothesis strategy over
the adversary's parameter space instead of raw op lists.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import (
    SlotShardController,
    UtilizationAdmissionController,
)
from repro.routing.shortest import shortest_path_routes
from repro.service import AdmissionService, AsyncServiceClient, ServiceConfig
from repro.topology import LinkServerGraph, line_network
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.flows import FlowSpec
from repro.traffic.generators import all_ordered_pairs
from repro.workload import AdversaryModel, adversarial, adversarial_events

pytestmark = pytest.mark.adversarial

_NETWORK = line_network(4)
_GRAPH = LinkServerGraph(_NETWORK)
_PAIRS_ROUTES = shortest_path_routes(
    _NETWORK, all_ordered_pairs(_NETWORK)
)
_VOICE = voice_class()

# Small alpha so the adversary's bursts actually hit rejections.
_ALPHA = 0.02


def make_controller(kind):
    args = (
        _GRAPH,
        ClassRegistry.two_class(_VOICE),
        {_VOICE.name: _ALPHA},
        _PAIRS_ROUTES,
    )
    if kind == "utilization":
        return UtilizationAdmissionController(*args)
    # The shard that ships: worker 0 of a 2-worker cluster.
    return SlotShardController(*args, shard_index=0, shard_count=2)


adversary_strategy = st.builds(
    dict,
    num_flows=st.integers(min_value=1, max_value=48),
    burst=st.integers(min_value=1, max_value=12),
    rate=st.sampled_from([8.0, 64.0, 512.0]),
    seed=st.integers(min_value=0, max_value=31),
    churn_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    hot_edges=st.integers(min_value=1, max_value=3),
)


def make_events(params):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            adversarial, "CHURN_FRACTION", params["churn_fraction"]
        )
        return adversarial_events(
            _GRAPH,
            _PAIRS_ROUTES,
            _VOICE.name,
            num_flows=params["num_flows"],
            model=AdversaryModel(
                rate=params["rate"], burst=params["burst"]
            ),
            seed=params["seed"],
            hot_edges=params["hot_edges"],
        )


def flow_of(event):
    return FlowSpec(
        flow_id=event.flow_id,
        class_name=event.class_name,
        source=event.source,
        destination=event.destination,
    )


def sequential_decisions(controller, events):
    """{flow_id: admitted} via one admit/release call per event."""
    decisions = {}
    for event in events:
        if event.kind == "arrival":
            decisions[event.flow_id] = controller.admit(
                flow_of(event)
            ).admitted
        elif decisions.get(event.flow_id):
            controller.release(event.flow_id)
    return decisions


def batch_decisions(controller, events):
    """{flow_id: admitted} with each burst as one batch epoch.

    Epochs are the natural adversarial batches: all events sharing a
    timestamp, departures applied first (the replay tie-break), then
    the epoch's arrivals in one ``admit_batch`` call.
    """
    decisions = {}
    epoch = []

    def flush():
        if not epoch:
            return
        for verdict, event in zip(
            controller.admit_batch([flow_of(e) for e in epoch]), epoch
        ):
            decisions[event.flow_id] = verdict.admitted
        epoch.clear()

    current = None
    for event in events:
        if event.time != current:
            flush()
            current = event.time
        if event.kind == "arrival":
            epoch.append(event)
        else:
            flush()
            if decisions.get(event.flow_id):
                controller.release(event.flow_id)
    flush()
    return decisions


def ledger_state(controller):
    return {
        flow.flow_id: (
            flow.class_name,
            tuple(controller.committed_route(flow.flow_id)),
        )
        for flow in controller.established_flows
    }


@settings(deadline=None, max_examples=40)
@given(params=adversary_strategy)
def test_batch_kernel_identical_to_sequential(params):
    events = make_events(params)
    seq = make_controller("utilization")
    bat = make_controller("utilization")
    assert batch_decisions(bat, events) == sequential_decisions(
        seq, events
    )
    assert ledger_state(bat) == ledger_state(seq)


@settings(deadline=None, max_examples=25)
@given(params=adversary_strategy)
def test_sharded_batch_identical_to_sharded_sequential(params):
    events = make_events(params)
    seq = make_controller("slotshard")
    bat = make_controller("slotshard")
    assert batch_decisions(bat, events) == sequential_decisions(
        seq, events
    )
    assert ledger_state(bat) == ledger_state(seq)
    assert bat.verify_invariants() == []
    assert seq.verify_invariants() == []


@settings(deadline=None, max_examples=10)
@given(params=adversary_strategy)
def test_wire_path_identical_to_in_process(params):
    events = make_events(params)

    async def wire(controller):
        service = AdmissionService(
            controller, ServiceConfig(max_delay=0.005)
        )
        await service.start_tcp("127.0.0.1", 0)
        client = await AsyncServiceClient.connect_tcp(
            "127.0.0.1", service.port
        )
        decisions = {}
        admitted = set()
        for event in events:
            if event.kind == "arrival":
                decision = await client.admit(flow_of(event))
                decisions[event.flow_id] = decision.admitted
                if decision.admitted:
                    admitted.add(event.flow_id)
            elif event.flow_id in admitted:
                await client.release(event.flow_id)
                admitted.discard(event.flow_id)
        await client.close()
        await service.drain()
        return decisions

    wire_controller = make_controller("utilization")
    seq_controller = make_controller("utilization")
    assert asyncio.run(wire(wire_controller)) == sequential_decisions(
        seq_controller, events
    )
    assert ledger_state(wire_controller) == ledger_state(seq_controller)


@settings(deadline=None, max_examples=25)
@given(params=adversary_strategy)
def test_invariants_hold_at_every_burst_boundary(params):
    """The machine-checked invariants survive the worst-case stream."""
    events = make_events(params)
    controller = make_controller("utilization")
    decisions = {}
    prev_time = None
    for event in events:
        if event.time != prev_time:
            assert controller.verify_invariants() == []
            prev_time = event.time
        if event.kind == "arrival":
            decisions[event.flow_id] = controller.admit(
                flow_of(event)
            ).admitted
        elif decisions.get(event.flow_id):
            controller.release(event.flow_id)
    assert controller.verify_invariants() == []
