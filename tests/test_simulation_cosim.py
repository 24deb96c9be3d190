"""Admission/packet co-simulation: the executable end-to-end guarantee."""

import numpy as np
import pytest

from repro.admission import UtilizationAdmissionController
from repro.errors import SimulationError
from repro.routing import shortest_path_routes
from repro.simulation import PacketPattern, Simulator, co_simulate
from repro.topology import LinkServerGraph, line_network, star_network
from repro.traffic import ClassRegistry, FlowSpec, voice_class
from repro.workload import TraceEvent, poisson_flow_schedule


class TestWindowedSources:
    def test_start_stop_bounds_emissions(self, line4_graph, voice_registry):
        sim = Simulator(line4_graph, voice_registry)
        sim.add_flow(
            FlowSpec("w", "voice", "r0", "r3"),
            ["r0", "r1", "r2", "r3"],
            PacketPattern("periodic", packet_size=640),
            start=0.2,
            stop=0.4,
        )
        report = sim.run(horizon=1.0)
        # 0.2 s of life at 50 packets/s.
        assert report.packets_injected == 10

    def test_lifetime_outside_horizon_is_silent(self, line4_graph,
                                                voice_registry):
        sim = Simulator(line4_graph, voice_registry)
        sim.add_flow(
            FlowSpec("w", "voice", "r0", "r1"),
            ["r0", "r1"],
            PacketPattern("periodic", packet_size=640),
            start=5.0,
        )
        sim.add_flow(
            FlowSpec("v", "voice", "r0", "r1"),
            ["r0", "r1"],
            PacketPattern("periodic", packet_size=640),
        )
        report = sim.run(horizon=1.0)
        worst = report.recorder._flow_max
        assert "w" not in worst and "v" in worst

    def test_invalid_window(self, line4_graph, voice_registry):
        sim = Simulator(line4_graph, voice_registry)
        with pytest.raises(SimulationError):
            sim.add_flow(
                FlowSpec("w", "voice", "r0", "r1"),
                ["r0", "r1"],
                PacketPattern("periodic", packet_size=640),
                start=-1.0,
            )
        with pytest.raises(SimulationError):
            sim.add_flow(
                FlowSpec("w", "voice", "r0", "r1"),
                ["r0", "r1"],
                PacketPattern("periodic", packet_size=640),
                start=0.5,
                stop=0.5,
            )


@pytest.fixture()
def mci_controller(mci, mci_graph, voice_registry):
    pairs = [(u, v) for u in mci.routers() for v in mci.routers() if u != v]
    routes = shortest_path_routes(mci, pairs)
    return UtilizationAdmissionController(
        mci_graph, voice_registry, {"voice": 0.35}, routes
    )


class TestCoSimulation:
    def test_verified_configuration_never_misses(
        self, mci, mci_graph, voice_registry, mci_controller
    ):
        """The headline property: alpha = 0.35 verified on SP routes =>
        zero deadline misses under dynamic churn."""
        schedule = poisson_flow_schedule(
            mci, "voice", arrival_rate=30.0, mean_holding=3.0,
            horizon=5.0, seed=9,
        )
        result = co_simulate(
            mci_graph,
            voice_registry,
            mci_controller,
            schedule,
            packet_size=640,
            pattern_kind="poisson",
        )
        assert result.flows_simulated > 20
        assert result.packets.conserved
        assert result.guarantees_held
        assert result.deadline_misses == {"voice": 0}

    def test_adversarial_sources_still_hold(
        self, mci, mci_graph, voice_registry, mci_controller
    ):
        schedule = poisson_flow_schedule(
            mci, "voice", arrival_rate=20.0, mean_holding=2.0,
            horizon=3.0, seed=4,
        )
        result = co_simulate(
            mci_graph,
            voice_registry,
            mci_controller,
            schedule,
            packet_size=640,
            pattern_kind="greedy",
        )
        assert result.guarantees_held

    def test_rejected_flows_not_simulated(self, voice_registry):
        """With one slot, the second overlapping flow is rejected and
        contributes no packets."""
        net = line_network(2)
        graph = LinkServerGraph(net)
        routes = {("r0", "r1"): ["r0", "r1"]}
        ctrl = UtilizationAdmissionController(
            graph, voice_registry, {"voice": 0.00034}, routes  # 1 slot
        )
        flows = [FlowSpec(i, "voice", "r0", "r1") for i in range(2)]
        schedule = [
            TraceEvent.arrival(0.1, flows[0]),
            TraceEvent.arrival(0.2, flows[1]),
            TraceEvent.departure(2.0, 0),
            TraceEvent.departure(2.0, 1),
        ]
        result = co_simulate(
            graph, voice_registry, ctrl, schedule, packet_size=640
        )
        assert result.admission.admitted == 1
        assert result.admission.rejected == 1
        assert result.flows_simulated == 1

    def test_reused_controller_simulates_this_schedule_only(
        self, voice_registry
    ):
        """A flow admitted by an earlier run but rejected by this one
        must not be simulated: the population is this replay's."""
        net = line_network(2)
        graph = LinkServerGraph(net)
        routes = {("r0", "r1"): ["r0", "r1"]}
        ctrl = UtilizationAdmissionController(
            graph, voice_registry, {"voice": 0.00034}, routes  # 1 slot
        )
        a = FlowSpec("a", "voice", "r0", "r1")
        b = FlowSpec("b", "voice", "r0", "r1")
        first = co_simulate(
            graph, voice_registry, ctrl,
            [TraceEvent.arrival(0.1, a), TraceEvent.departure(1.0, "a")],
            packet_size=640,
        )
        assert first.admission.admitted_ids == ["a"]
        second = co_simulate(
            graph, voice_registry, ctrl,
            [
                TraceEvent.arrival(0.1, b),
                TraceEvent.arrival(0.2, a),  # slot taken: rejected
                TraceEvent.departure(2.0, "b"),
                TraceEvent.departure(2.0, "a"),
            ],
            packet_size=640,
        )
        assert second.admission.admitted_ids == ["b"]
        assert second.flows_simulated == 1
        assert set(second.packets.recorder._flow_max) == {"b"}

    def test_departed_flows_stop_sending(self, voice_registry):
        net = line_network(2)
        graph = LinkServerGraph(net)
        routes = {("r0", "r1"): ["r0", "r1"]}
        ctrl = UtilizationAdmissionController(
            graph, voice_registry, {"voice": 0.3}, routes
        )
        flow = FlowSpec("f", "voice", "r0", "r1")
        schedule = [
            TraceEvent.arrival(0.0, flow),
            TraceEvent.departure(0.5, "f"),
            TraceEvent.arrival(2.0, FlowSpec("g", "voice", "r0", "r1")),
        ]
        result = co_simulate(
            graph, voice_registry, ctrl, schedule, packet_size=640,
            pattern_kind="periodic",
        )
        # flow f lives 0.5 s at 50 pps = 25 packets; g starts at the
        # horizon and contributes nothing.
        assert result.packets.packets_injected == 25

    def test_readmitted_id_sends_in_its_lifetimes_only(self, voice_registry):
        """A flow id admitted twice (a preempted flow re-admitted, a
        chaos retry) is two lifetimes, not two sources over the union."""
        net = line_network(2)
        graph = LinkServerGraph(net)
        ctrl = UtilizationAdmissionController(
            graph, voice_registry, {"voice": 0.3},
            {("r0", "r1"): ["r0", "r1"]},
        )
        flow = FlowSpec("f", "voice", "r0", "r1")
        schedule = [
            TraceEvent.arrival(0.0, flow),
            TraceEvent.departure(0.5, "f"),
            TraceEvent.arrival(1.5, flow),
            TraceEvent.departure(2.0, "f"),
        ]
        result = co_simulate(
            graph, voice_registry, ctrl, schedule, packet_size=640,
            pattern_kind="periodic",
        )
        assert result.flows_simulated == 2
        assert [
            (life.start, life.stop) for life in result.admission.lifetimes
        ] == [(0.0, 0.5), (1.5, 2.0)]
        # 2 lifetimes x 0.5 s x 50 pps (the id-keyed reconstruction
        # ran both sources over [0, 2.0): 200 packets).
        assert result.packets.packets_injected == 50

    def test_rejected_then_admitted_id_sends_from_its_admission(
        self, voice_registry
    ):
        """An id rejected on its first attempt transmits from the
        instant it was admitted, not from the rejected attempt's."""
        net = line_network(2)
        graph = LinkServerGraph(net)
        ctrl = UtilizationAdmissionController(
            graph, voice_registry, {"voice": 0.00034},  # 1 slot
            {("r0", "r1"): ["r0", "r1"]},
        )
        holder = FlowSpec("h", "voice", "r0", "r1")
        late = FlowSpec("f", "voice", "r0", "r1")
        schedule = [
            TraceEvent.arrival(0.0, holder),
            TraceEvent.arrival(0.2, late),  # slot taken: rejected
            TraceEvent.departure(1.0, "h"),
            TraceEvent.arrival(1.5, late),  # admitted
            TraceEvent.departure(2.0, "f"),
        ]
        result = co_simulate(
            graph, voice_registry, ctrl, schedule, packet_size=640,
            pattern_kind="periodic",
        )
        assert result.admission.rejected == 1
        assert result.admission.admitted_ids == ["h", "f"]
        # h: 1.0 s, f: 0.5 s, at 50 pps.
        assert result.packets.packets_injected == 75
        assert result.packets.recorder._flow_count["f"] == 25

    def test_empty_schedule_rejected(self, mci_graph, voice_registry,
                                     mci_controller):
        with pytest.raises(SimulationError):
            co_simulate(
                mci_graph, voice_registry, mci_controller, [],
                packet_size=640,
            )
