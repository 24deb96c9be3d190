"""Class-based static priority: what a lower class can cost a higher one.

The paper's guarantees rest on class-based static priority (Section 4),
non-preemptive: a best-effort packet already on the wire delays a
real-time packet by at most one transmission per hop.
"""

import pytest

from repro.simulation import PacketPattern, Simulator
from repro.topology import LinkServerGraph, star_network
from repro.traffic import ClassRegistry, FlowSpec, TrafficClass, voice_class


@pytest.fixture(scope="module")
def setup():
    bulk = TrafficClass(
        "bulk", burst=200_000, rate=55e6, deadline=10.0, priority=9
    )
    registry = ClassRegistry([voice_class(), bulk])
    net = star_network(4)
    graph = LinkServerGraph(net)
    return graph, registry


def _voice(sim):
    for i in range(10):
        sim.add_flow(
            FlowSpec(f"v{i}", "voice", "leaf0", "leaf3"),
            ["leaf0", "hub", "leaf3"],
            PacketPattern("greedy", packet_size=640, seed=i),
        )
    return sim


def test_priority_cost_bounded_by_one_packet(setup):
    """Voice beside two converging bulk aggressors that oversubscribe the
    hub output (2 x 55 Mbps + voice > 100 Mbps): bulk can block voice by
    at most one packet transmission per hop."""
    graph, registry = setup
    sim = _voice(Simulator(graph, registry))
    for b, leaf in enumerate(("leaf1", "leaf2")):
        sim.add_flow(
            FlowSpec(f"b{b}", "bulk", leaf, "leaf3"),
            [leaf, "hub", "leaf3"],
            PacketPattern("greedy", packet_size=12_000, seed=99 + b),
        )
    prio = sim.run(horizon=0.3)
    quiet = _voice(Simulator(graph, registry)).run(horizon=0.3)
    blocking = 2 * 12_000 / 100e6
    assert prio.max_e2e("voice") <= quiet.max_e2e("voice") + blocking + 1e-9
