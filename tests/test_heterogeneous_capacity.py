"""Heterogeneous link capacities: the dumbbell bottleneck scenario.

The paper assumes uniform capacity ``C``; the library supports per-link
capacities end to end (ledger slots, flow-aware analysis, simulator).
These tests exercise that support on the classic dumbbell, where a slow
bottleneck link dominates every decision.
"""

import numpy as np
import pytest

from repro.admission import UtilizationAdmissionController, UtilizationLedger
from repro.analysis import flow_aware_delays
from repro.errors import TopologyError
from repro.routing import shortest_path_routes
from repro.simulation import PacketPattern, Simulator
from repro.topology import LinkServerGraph, dumbbell_network
from repro.traffic import ClassRegistry, FlowSpec, voice_class


@pytest.fixture()
def dumbbell():
    # 3 left leaves, 2 right leaves; 10 Mbps bottleneck, 100 Mbps access.
    net = dumbbell_network(3, 2, bottleneck_capacity=10e6)
    return net, LinkServerGraph(net)


@pytest.fixture()
def registry():
    return ClassRegistry.two_class(voice_class())


def _routes(net):
    pairs = [
        (f"L{i}", f"R{j}") for i in range(3) for j in range(2)
    ]
    return shortest_path_routes(net, pairs)


class TestLedgerHeterogeneous:
    def test_slots_follow_link_capacity(self, dumbbell, registry):
        net, graph = dumbbell
        ledger = UtilizationLedger(graph, registry, {"voice": 0.32})
        slots = ledger.slots("voice")
        bottleneck = graph.server_index("hubL", "hubR")
        access = graph.server_index("L0", "hubL")
        assert slots[bottleneck] == int(0.32 * 10e6 / 32_000)   # 100
        assert slots[access] == int(0.32 * 100e6 / 32_000)      # 1000

    def test_uniform_capacity_query_rejected(self, dumbbell):
        net, graph = dumbbell
        with pytest.raises(TopologyError):
            graph.uniform_capacity()


class TestAdmissionAtBottleneck:
    def test_bottleneck_caps_admission(self, dumbbell, registry):
        net, graph = dumbbell
        ctrl = UtilizationAdmissionController(
            graph, registry, {"voice": 0.32}, _routes(net)
        )
        cap = int(0.32 * 10e6 / 32_000)  # 100 flows through the middle
        admitted = 0
        for i in range(cap + 50):
            src, dst = f"L{i % 3}", f"R{i % 2}"
            if ctrl.admit(FlowSpec(i, "voice", src, dst)).admitted:
                admitted += 1
        assert admitted == cap
        # Access links are far from full; the bottleneck is the binding
        # constraint.
        ratio = ctrl.ledger.used_view("voice") / ctrl.ledger.slots("voice")
        assert int(np.argmax(ratio)) == graph.server_index("hubL", "hubR")
        assert ratio.max() == pytest.approx(1.0)


class TestAnalysisHeterogeneous:
    def test_flow_aware_sees_the_slow_link(self, dumbbell, registry):
        net, graph = dumbbell
        flows = [
            FlowSpec(
                f"f{i}", "voice", f"L{i % 3}", "R0",
                route=(f"L{i % 3}", "hubL", "hubR", "R0"),
            )
            for i in range(60)
        ]
        res = flow_aware_delays(graph, flows, registry)
        assert res.converged
        d = res.server_delays["voice"]
        bottleneck = graph.server_index("hubL", "hubR")
        # The 10 Mbps link dominates every other server's delay.
        others = np.delete(d, bottleneck)
        assert d[bottleneck] >= others.max()

    def test_simulated_delay_dominated_by_bottleneck(self, dumbbell,
                                                     registry):
        net, graph = dumbbell
        sim = Simulator(graph, registry)
        for i in range(60):
            sim.add_flow(
                FlowSpec(f"f{i}", "voice", f"L{i % 3}", "R0"),
                [f"L{i % 3}", "hubL", "hubR", "R0"],
                PacketPattern("greedy", packet_size=640, seed=i),
            )
        report = sim.run(horizon=0.5)
        assert report.conserved
        bottleneck = graph.server_index("hubL", "hubR")
        hop_max = report.recorder._hop_max
        worst_bottleneck = hop_max.get((bottleneck, "voice"), 0.0)
        for s in range(graph.num_servers):
            if s == bottleneck:
                continue
            assert hop_max.get((s, "voice"), 0.0) <= (
                worst_bottleneck + 1e-12
            )

    def test_sim_within_flow_aware_bound(self, dumbbell, registry):
        """Measured delays stay under the flow-aware analysis even with
        mixed capacities."""
        net, graph = dumbbell
        flows = []
        sim = Simulator(graph, registry)
        for i in range(30):
            route = (f"L{i % 3}", "hubL", "hubR", "R0")
            flow = FlowSpec(f"f{i}", "voice", route[0], "R0", route=route)
            flows.append(flow)
            sim.add_flow(
                flow, list(route),
                PacketPattern("greedy", packet_size=640, seed=i),
            )
        report = sim.run(horizon=0.5)
        analysis = flow_aware_delays(graph, flows, registry)
        assert analysis.converged
        bound = max(analysis.flow_delays.values())
        allowance = 3 * 640 / 10e6 + 640 / 100e6  # SF on the slow wire
        assert report.max_e2e("voice") <= bound + allowance
