"""Flow-aware (general delay formula) analysis."""

import numpy as np
import pytest

from repro.analysis import flow_aware_delays, static_priority_delay
from repro.analysis.netcalc import FlowAwareResult
from repro.errors import AnalysisError
from repro.topology import LinkServerGraph, line_network
from repro.traffic import (
    ClassRegistry,
    Envelope,
    FlowSpec,
    TrafficClass,
    leaky_bucket_envelope,
    video_class,
    voice_class,
)


def _voice_flow(i, route):
    return FlowSpec(
        flow_id=f"v{i}",
        class_name="voice",
        source=route[0],
        destination=route[-1],
        route=tuple(route),
    )


class TestStaticPriorityDelay:
    def test_no_higher_priority_is_fifo(self):
        own = leaky_bucket_envelope(640, 32_000).scale(10)
        assert static_priority_delay([], own, 1e6) == pytest.approx(
            own.max_delay(1e6)
        )

    def test_higher_priority_increases_delay(self):
        own = leaky_bucket_envelope(640, 32_000).scale(5)
        higher = leaky_bucket_envelope(8_000, 1e6)
        d0 = static_priority_delay([], own, 10e6)
        d1 = static_priority_delay([higher], own, 10e6)
        assert d1 > d0

    def test_two_bucket_hand_case(self):
        # d = (T_h + T_own)/C when rates are small: burst clearance.
        own = leaky_bucket_envelope(1_000, 1_000)
        high = leaky_bucket_envelope(2_000, 1_000)
        d = static_priority_delay([high], own, 1e6)
        assert d == pytest.approx(3_000 / 1e6, rel=1e-2)

    def test_unstable_rejected(self):
        own = leaky_bucket_envelope(640, 0.9e6)
        high = leaky_bucket_envelope(640, 0.9e6)
        with pytest.raises(AnalysisError):
            static_priority_delay([high], own, 1e6)

    def test_invalid_capacity(self):
        own = leaky_bucket_envelope(640, 100)
        with pytest.raises(AnalysisError):
            static_priority_delay([], own, 0.0)


class TestFlowAware:
    def test_single_flow_single_hop(self, line4_graph, voice_registry):
        flow = _voice_flow(0, ["r0", "r1"])
        res = flow_aware_delays(line4_graph, [flow], voice_registry)
        assert res.converged
        # One clamped leaky bucket through 100 Mbps: tiny positive delay.
        d = res.flow_delays["v0"]
        assert 0 <= d < 1e-4

    def test_requires_routes(self, line4_graph, voice_registry):
        flow = FlowSpec(1, "voice", "r0", "r1")
        with pytest.raises(AnalysisError):
            flow_aware_delays(line4_graph, [flow], voice_registry)

    def test_unknown_class(self, line4_graph, voice_registry):
        flow = FlowSpec(1, "ghost", "r0", "r1", route=("r0", "r1"))
        with pytest.raises(AnalysisError):
            flow_aware_delays(line4_graph, [flow], voice_registry)

    def test_single_wire_causes_no_queueing(self, line4_graph,
                                            voice_registry):
        """All flows on one input link of equal capacity: zero delay.

        Per-input clamping captures the physics: a single wire cannot
        oversubscribe an equal-rate output link.
        """
        route = ["r0", "r1", "r2", "r3"]
        flows = [_voice_flow(i, route) for i in range(100)]
        res = flow_aware_delays(line4_graph, flows, voice_registry)
        assert res.converged
        assert max(res.flow_delays.values()) == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def _converging(n_per_branch):
        """Flows converging on the shared hub->sink link of a star."""
        from repro.topology import star_network

        net = star_network(4)
        graph = LinkServerGraph(net)
        flows = []
        for b in range(3):
            for i in range(n_per_branch):
                flows.append(
                    FlowSpec(
                        f"v{b}_{i}",
                        "voice",
                        f"leaf{b}",
                        "leaf3",
                        route=(f"leaf{b}", "hub", "leaf3"),
                    )
                )
        return graph, flows

    def test_delay_grows_with_population(self, voice_registry):
        delays = []
        for n in (1, 20, 80):
            graph, flows = self._converging(n)
            res = flow_aware_delays(graph, flows, voice_registry)
            assert res.converged
            delays.append(max(res.flow_delays.values()))
        assert delays == sorted(delays)
        assert delays[-1] > delays[0] >= 0.0

    def test_contention_point_carries_the_delay(self, voice_registry):
        graph, flows = self._converging(50)
        res = flow_aware_delays(graph, flows, voice_registry)
        d = res.server_delays["voice"]
        shared = graph.server_index("hub", "leaf3")
        access = graph.server_index("leaf0", "hub")
        assert d[shared] > 0.0
        assert d[access] == pytest.approx(0.0, abs=1e-12)

    def test_meets_deadlines_api(self, line4_graph, voice_registry, voice):
        route = ["r0", "r1", "r2", "r3"]
        flows = [_voice_flow(i, route) for i in range(10)]
        res = flow_aware_delays(line4_graph, flows, voice_registry)
        assert res.converged
        assert all(
            res.flow_delays[f.flow_id] <= voice.deadline for f in flows
        )

    def test_best_effort_flows_ignored(self, line4_graph):
        registry = ClassRegistry.two_class(voice_class())
        be_flow = FlowSpec(
            "be1", "best-effort", "r0", "r1", route=("r0", "r1")
        )
        v_flow = _voice_flow(0, ["r0", "r1"])
        res = flow_aware_delays(line4_graph, [be_flow, v_flow], registry)
        assert "be1" not in res.flow_delays
        assert "v0" in res.flow_delays

    def test_priority_isolation(self, line4_graph):
        """Voice delay must not depend on video (lower priority) load."""
        registry = ClassRegistry([voice_class(), video_class()])
        route = ["r0", "r1", "r2"]
        voice_flows = [_voice_flow(i, route) for i in range(5)]
        video_flows = [
            FlowSpec(f"w{i}", "video", "r0", "r2", route=tuple(route))
            for i in range(5)
        ]
        alone = flow_aware_delays(line4_graph, voice_flows, registry)
        mixed = flow_aware_delays(
            line4_graph, voice_flows + video_flows, registry
        )
        for i in range(5):
            assert mixed.flow_delays[f"v{i}"] == pytest.approx(
                alone.flow_delays[f"v{i}"], rel=1e-9
            )
        # ... while video sees the voice interference.
        assert all(
            mixed.flow_delays[f"w{i}"] >= mixed.flow_delays["v0"] - 1e-12
            for i in range(5)
        )

    def test_dominated_by_configuration_bound(self, voice_registry, voice):
        """For a conforming population, the flow-aware bound stays below
        the configuration-time (worst-case over populations) bound."""
        from repro.analysis import single_class_delays

        graph, flows = self._converging(60)
        # 180 flows of 32 kbps = 5.76 Mbps; pick alpha covering them.
        alpha = 0.06
        assert 180 * voice.rate <= alpha * 100e6
        routes = [list(f.route) for f in flows]
        flow_res = flow_aware_delays(graph, flows, voice_registry)
        cfg_res = single_class_delays(graph, routes, voice, alpha)
        assert flow_res.converged and cfg_res.safe
        assert max(flow_res.flow_delays.values()) <= (
            cfg_res.worst_route_delay + 1e-9
        )
