"""Cross-validation: simulated delays never exceed the analytic bounds.

These are the strongest correctness tests in the repository: the
configuration-time bound (Theorems 1-3) must dominate every packet's
measured end-to-end delay for any admissible, envelope-compliant traffic,
including the adversarial greedy pattern.
"""

import numpy as np
import pytest

from repro.analysis import multi_class_delays, single_class_delays
from repro.simulation import PacketPattern, Simulator
from repro.topology import LinkServerGraph, line_network, star_network
from repro.traffic import ClassRegistry, FlowSpec, video_class, voice_class


def _sf_allowance(hops: int, packet_bits: float, capacity: float) -> float:
    """Store-and-forward constant vs the fluid analysis.

    The Cruz-style bounds are fluid (bits drain continuously); a packet
    network adds up to one packet transmission per hop plus one at the
    ingress wire.  The paper folds such constants into the deadline
    (Section 3); the tests add them back explicitly.
    """
    return (hops + 1) * packet_bits / capacity


@pytest.mark.parametrize("pattern_kind", ["greedy", "periodic", "poisson"])
def test_line_network_bound_dominates(pattern_kind, voice, voice_registry):
    net = line_network(4)
    graph = LinkServerGraph(net)
    route = ["r0", "r1", "r2", "r3"]
    alpha = 0.05
    n_flows = 40  # 40 * 32k = 1.28 Mbps << alpha*C = 5 Mbps

    sim = Simulator(graph, voice_registry)
    for i in range(n_flows):
        sim.add_flow(
            FlowSpec(f"v{i}", "voice", "r0", "r3"),
            route,
            PacketPattern(pattern_kind, packet_size=640, seed=i),
        )
    report = sim.run(horizon=1.0)
    bound = single_class_delays(graph, [route], voice, alpha)
    assert bound.safe
    allowance = _sf_allowance(3, 640, 100e6)
    assert report.max_e2e("voice") <= bound.worst_route_delay + allowance


def test_star_convergence_bound_dominates(voice, voice_registry):
    """Flows converging from distinct input links — real contention."""
    net = star_network(4)
    graph = LinkServerGraph(net)
    alpha = 0.05
    routes = [[f"leaf{b}", "hub", "leaf3"] for b in range(3)]
    per_branch = 50  # 150 flows * 32k = 4.8 Mbps <= 5 Mbps

    sim = Simulator(graph, voice_registry)
    for b in range(3):
        for i in range(per_branch):
            sim.add_flow(
                FlowSpec(f"v{b}_{i}", "voice", f"leaf{b}", "leaf3"),
                routes[b],
                PacketPattern("greedy", packet_size=640, seed=b * 100 + i),
            )
    report = sim.run(horizon=1.0)
    bound = single_class_delays(graph, routes, voice, alpha)
    assert bound.safe
    measured = report.max_e2e("voice")
    allowance = _sf_allowance(2, 640, 100e6)
    assert measured <= bound.worst_route_delay + allowance
    # The bound should be doing real work (non-trivial traffic).
    assert measured > 2 * 640 / 100e6


def test_per_hop_bounds_dominate(voice, voice_registry):
    """Not just end-to-end: each server's measured residence stays below
    its analytic per-server bound."""
    net = star_network(4)
    graph = LinkServerGraph(net)
    alpha = 0.04
    routes = [[f"leaf{b}", "hub", "leaf3"] for b in range(3)]
    sim = Simulator(graph, voice_registry)
    for b in range(3):
        for i in range(40):
            sim.add_flow(
                FlowSpec(f"v{b}_{i}", "voice", f"leaf{b}", "leaf3"),
                routes[b],
                PacketPattern("greedy", packet_size=640, seed=7 * b + i),
            )
    report = sim.run(horizon=1.0)
    bound = single_class_delays(graph, routes, voice, alpha)
    per_hop_allowance = 2 * 640 / 100e6  # own transmission + quantization
    for s in range(graph.num_servers):
        measured = report.recorder._hop_max.get((s, "voice"), 0.0)
        assert measured <= float(bound.server_delays[s]) + per_hop_allowance


def test_multiclass_bounds_dominate():
    """Voice + video together under Theorem 5 bounds."""
    voice = voice_class()
    video = video_class()
    registry = ClassRegistry([voice, video])
    net = star_network(4)
    graph = LinkServerGraph(net)
    routes = [[f"leaf{b}", "hub", "leaf3"] for b in range(3)]
    alphas = {"voice": 0.03, "video": 0.10}

    sim = Simulator(graph, registry)
    for b in range(3):
        for i in range(30):  # 90 voice flows: 2.88 Mbps <= 3 Mbps
            sim.add_flow(
                FlowSpec(f"v{b}_{i}", "voice", f"leaf{b}", "leaf3"),
                routes[b],
                PacketPattern("greedy", packet_size=640, seed=i),
            )
        for i in range(3):  # 9 video flows: 9 Mbps <= 10 Mbps
            sim.add_flow(
                FlowSpec(f"w{b}_{i}", "video", f"leaf{b}", "leaf3"),
                routes[b],
                PacketPattern("greedy", packet_size=8_000, seed=i),
            )
    report = sim.run(horizon=1.0)
    bound = multi_class_delays(
        graph, {"voice": routes, "video": routes}, registry, alphas
    )
    assert bound.safe
    # Largest packet on the path (video, 8 kb) sets the SF constant.
    allowance = _sf_allowance(2, 8_000, 100e6)
    assert report.max_e2e("voice") <= (
        bound.per_class["voice"].route_delays.max() + allowance
    )
    assert report.max_e2e("video") <= (
        bound.per_class["video"].route_delays.max() + allowance
    )


def test_mci_subset_bound_dominates(mci, mci_graph, voice, voice_registry):
    """A converging pattern on the real evaluation topology."""
    alpha = 0.02
    routes = [
        ["Seattle", "Chicago", "NewYork", "Boston"],
        ["Denver", "Chicago", "NewYork", "Boston"],
        ["KansasCity", "Chicago", "NewYork", "Boston"],
        ["Atlanta", "Chicago", "NewYork", "Boston"],
    ]
    sim = Simulator(mci_graph, voice_registry)
    fid = 0
    for route in routes:
        for i in range(15):  # 60 flows * 32k = 1.92 Mbps <= 2 Mbps
            sim.add_flow(
                FlowSpec(f"v{fid}", "voice", route[0], route[-1]),
                route,
                PacketPattern("greedy", packet_size=640, seed=fid),
            )
            fid += 1
    report = sim.run(horizon=1.0)
    bound = single_class_delays(mci_graph, routes, voice, alpha)
    assert bound.safe
    allowance = _sf_allowance(3, 640, 100e6)
    assert report.max_e2e("voice") <= bound.worst_route_delay + allowance
