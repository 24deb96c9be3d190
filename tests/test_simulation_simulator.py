"""End-to-end simulator behavior."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation import PacketPattern, Simulator
from repro.topology import LinkServerGraph, line_network, star_network
from repro.traffic import ClassRegistry, FlowSpec, TrafficClass, voice_class


def _sim(graph, registry):
    return Simulator(graph, registry)


def _voice_flow(i, src, dst):
    return FlowSpec(f"v{i}", "voice", src, dst)


def test_packet_conservation(line4_graph, voice_registry):
    sim = _sim(line4_graph, voice_registry)
    sim.add_flow(
        _voice_flow(0, "r0", "r3"),
        ["r0", "r1", "r2", "r3"],
        PacketPattern("periodic", packet_size=640),
    )
    report = sim.run(horizon=1.0)
    assert report.conserved
    assert report.packets_in_flight == 0  # drained
    assert report.packets_injected == 50  # 32 kbps / 640 b = 50 pps


def test_unloaded_delay_is_pure_transmission(line4_graph, voice_registry):
    """A lone periodic flow sees only transmission time per hop."""
    sim = _sim(line4_graph, voice_registry)
    hops = 3
    sim.add_flow(
        _voice_flow(0, "r0", "r3"),
        ["r0", "r1", "r2", "r3"],
        PacketPattern("periodic", packet_size=640),
    )
    report = sim.run(horizon=0.5)
    expected = hops * 640 / 100e6
    np.testing.assert_allclose(report.e2e["voice"], expected, rtol=1e-9)


def test_delay_statistics_api(line4_graph, voice_registry):
    sim = _sim(line4_graph, voice_registry)
    sim.add_flow(
        _voice_flow(0, "r0", "r2"),
        ["r0", "r1", "r2"],
        PacketPattern("greedy", packet_size=640),
    )
    report = sim.run(horizon=0.5)
    assert report.max_e2e("voice") >= report.mean_e2e("voice")
    assert np.percentile(report.e2e["voice"], 50) <= report.max_e2e("voice")
    assert report.max_e2e("ghost") == 0.0
    assert np.isnan(report.mean_e2e("ghost"))


def test_contention_increases_delay(voice_registry):
    """Converging greedy flows queue at the shared hub output."""
    net = star_network(3)
    graph = LinkServerGraph(net)
    sim = _sim(graph, voice_registry)
    for b in range(2):
        for i in range(40):
            sim.add_flow(
                FlowSpec(f"v{b}_{i}", "voice", f"leaf{b}", "leaf2"),
                [f"leaf{b}", "hub", "leaf2"],
                PacketPattern("greedy", packet_size=640),
            )
    report = sim.run(horizon=0.5)
    lone_delay = 2 * 640 / 100e6
    assert report.max_e2e("voice") > lone_delay


def test_static_priority_isolation():
    """Low-priority flooding cannot hurt voice beyond one packet time."""
    bulk = TrafficClass("bulk", burst=100_000, rate=40e6, deadline=10.0,
                        priority=9)
    registry = ClassRegistry([voice_class(), bulk])
    net = star_network(3)
    graph = LinkServerGraph(net)

    def run(with_bulk: bool):
        sim = _sim(graph, registry)
        for i in range(10):
            sim.add_flow(
                FlowSpec(f"v{i}", "voice", "leaf0", "leaf2"),
                ["leaf0", "hub", "leaf2"],
                PacketPattern("greedy", packet_size=640),
            )
        if with_bulk:
            sim.add_flow(
                FlowSpec("b", "bulk", "leaf1", "leaf2"),
                ["leaf1", "hub", "leaf2"],
                PacketPattern("greedy", packet_size=12_000, seed=1),
            )
        return sim.run(horizon=0.3)

    quiet = run(False)
    loaded = run(True)
    # One low-priority packet (12 kb) per hop can block a voice packet.
    blocking = 2 * 12_000 / 100e6
    assert loaded.max_e2e("voice") <= quiet.max_e2e("voice") + blocking + 1e-9


def test_hop_metrics_recorded(line4_graph, voice_registry):
    sim = _sim(line4_graph, voice_registry)
    route = ["r0", "r1", "r2"]
    sim.add_flow(
        _voice_flow(0, "r0", "r2"), route,
        PacketPattern("periodic", packet_size=640),
    )
    report = sim.run(horizon=0.2)
    servers = line4_graph.route_servers(route)
    for s in servers:
        assert report.recorder._hop_max.get((int(s), "voice"), 0.0) > 0.0
    assert set(report.recorder._hop_max) == {
        (int(s), "voice") for s in servers
    }


def test_run_without_flows_raises(line4_graph, voice_registry):
    with pytest.raises(SimulationError):
        _sim(line4_graph, voice_registry).run(horizon=1.0)


def test_invalid_horizon(line4_graph, voice_registry):
    sim = _sim(line4_graph, voice_registry)
    sim.add_flow(
        _voice_flow(0, "r0", "r1"), ["r0", "r1"],
        PacketPattern("periodic", packet_size=640),
    )
    with pytest.raises(SimulationError):
        sim.run(horizon=0.0)


def test_no_drain_stops_at_horizon(line4_graph, voice_registry):
    sim = _sim(line4_graph, voice_registry)
    sim.add_flow(
        _voice_flow(0, "r0", "r3"), ["r0", "r1", "r2", "r3"],
        PacketPattern("greedy", packet_size=640),
    )
    report = sim.run(horizon=0.05, drain=False)
    assert report.conserved  # in-flight accounted, not lost


def test_deterministic_replay(line4_graph, voice_registry):
    def run():
        sim = _sim(line4_graph, voice_registry)
        for i in range(5):
            sim.add_flow(
                _voice_flow(i, "r0", "r3"), ["r0", "r1", "r2", "r3"],
                PacketPattern("poisson", packet_size=640, seed=i),
            )
        return sim.run(horizon=0.5)

    a, b = run(), run()
    np.testing.assert_array_equal(a.e2e["voice"], b.e2e["voice"])
    assert a.events_processed == b.events_processed
