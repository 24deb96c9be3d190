"""Extended simulator metrics: deadline misses, per-flow stats, jitter."""

import numpy as np
import pytest

from repro.simulation import DelayRecorder, PacketPattern, Simulator
from repro.topology import LinkServerGraph, star_network
from repro.traffic import ClassRegistry, FlowSpec, voice_class


class TestDelayRecorder:
    def test_per_flow_tracking(self):
        rec = DelayRecorder()
        rec.record_delivery("voice", 0.01, flow_id="a")
        rec.record_delivery("voice", 0.03, flow_id="a")
        rec.record_delivery("voice", 0.02, flow_id="b")
        assert rec._flow_max == {"a": 0.03, "b": 0.02}
        assert rec._flow_count == {"a": 2, "b": 1}

    def test_delivery_without_flow_id(self):
        rec = DelayRecorder()
        rec.record_delivery("voice", 0.01)
        assert rec.packets_delivered == 1
        assert rec._flow_max == {}


@pytest.fixture(scope="module")
def report():
    net = star_network(3)
    graph = LinkServerGraph(net)
    registry = ClassRegistry.two_class(voice_class())
    sim = Simulator(graph, registry)
    for b in range(2):
        for i in range(30):
            sim.add_flow(
                FlowSpec(f"v{b}_{i}", "voice", f"leaf{b}", "leaf2"),
                [f"leaf{b}", "hub", "leaf2"],
                PacketPattern("greedy", packet_size=640, seed=b * 100 + i),
            )
    return sim.run(horizon=0.5)


class TestReportMetrics:
    def test_deadline_misses_at_extremes(self, report):
        assert report.deadline_misses("voice", 10.0) == 0
        assert report.deadline_misses("voice", 0.0) == (
            report.packets_delivered
        )

    def test_miss_fraction_consistency(self, report):
        deadline = float(np.percentile(report.e2e["voice"], 90))
        misses = report.deadline_misses("voice", deadline)
        assert 0.0 <= misses / report.packets_delivered <= 0.2

    def test_miss_fraction_unknown_class(self, report):
        assert report.deadline_misses("ghost", 0.1) == 0

    def test_per_flow_worst_in_engine(self, report):
        worst = report.recorder._flow_max
        assert len(worst) == 60  # every flow delivered packets
        assert max(worst.values()) == pytest.approx(
            report.max_e2e("voice")
        )
        total = sum(
            report.recorder._flow_count[fid] for fid in worst
        )
        assert total == report.packets_delivered
