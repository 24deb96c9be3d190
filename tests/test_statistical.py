"""Statistical guarantees extension (Section 7 outlook)."""

import numpy as np
import pytest

from repro.errors import AdmissionError, ConfigurationError, SimulationError
from repro.statistical import (
    DelayDistribution,
    calibrate_overbooking,
    estimate_delay_distribution,
)
from repro.routing import shortest_path_routes
from repro.topology import LinkServerGraph, star_network
from repro.traffic import ClassRegistry, FlowSpec, voice_class


@pytest.fixture(scope="module")
def star():
    net = star_network(4)
    return net, LinkServerGraph(net)


def _converging_flows(graph_pair, n_per_branch):
    net, graph = graph_pair
    out = []
    for b in range(3):
        for i in range(n_per_branch):
            flow = FlowSpec(
                f"v{b}_{i}", "voice", f"leaf{b}", "leaf3",
            )
            out.append((flow, [f"leaf{b}", "hub", "leaf3"]))
    return out


class TestDelayDistribution:
    def test_quantile_and_miss(self):
        d = DelayDistribution(
            "voice", np.array([0.001, 0.002, 0.003, 0.004]), 1
        )
        assert d.count == 4
        assert d.max == 0.004
        assert d.quantile(0.5) == pytest.approx(0.0025)
        assert d.miss_probability(0.0025) == pytest.approx(0.5)
        assert d.miss_probability(1.0) == 0.0

    def test_upper_bound_dominates_point_estimate(self):
        d = DelayDistribution("voice", np.linspace(0, 0.01, 200), 1)
        for deadline in (0.002, 0.005, 0.009):
            assert d.miss_probability_upper(deadline) >= d.miss_probability(
                deadline
            )

    def test_zero_misses_rule_of_three(self):
        d = DelayDistribution("voice", np.full(300, 0.001), 1)
        upper = d.miss_probability_upper(0.01, 0.95)
        assert 0 < upper <= 3.0 / 300 * 1.1

    def test_invalid_quantile(self):
        d = DelayDistribution("voice", np.array([1.0]), 1)
        with pytest.raises(ValueError):
            d.quantile(1.5)

    def test_unsupported_confidence(self):
        d = DelayDistribution("voice", np.array([1.0]), 1)
        with pytest.raises(ValueError):
            d.miss_probability_upper(0.5, confidence=0.87)


class TestEstimator:
    def test_deterministic_per_seed(self, star, voice_registry):
        net, graph = star
        flows = _converging_flows(star, 10)
        a = estimate_delay_distribution(
            graph, voice_registry, flows, class_name="voice",
            packet_size=640, horizon=0.3, replications=2, seed=5,
        )
        b = estimate_delay_distribution(
            graph, voice_registry, flows, class_name="voice",
            packet_size=640, horizon=0.3, replications=2, seed=5,
        )
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_pools_over_replications(self, star, voice_registry):
        flows = _converging_flows(star, 5)
        one = estimate_delay_distribution(
            star[1], voice_registry, flows, class_name="voice",
            packet_size=640, horizon=0.3, replications=1, seed=1,
        )
        three = estimate_delay_distribution(
            star[1], voice_registry, flows, class_name="voice",
            packet_size=640, horizon=0.3, replications=3, seed=1,
        )
        assert three.count > one.count
        assert three.replications == 3

    def test_typical_delays_below_worst_case(self, star, voice_registry,
                                             voice):
        """The statistical point: random phasing rarely approaches the
        deterministic worst case."""
        from repro.analysis import single_class_delays

        flows = _converging_flows(star, 40)  # 120 * 32k = 3.84 Mbps
        dist = estimate_delay_distribution(
            star[1], voice_registry, flows, class_name="voice",
            packet_size=640, horizon=0.5, replications=2, seed=2,
        )
        routes = [[f"leaf{b}", "hub", "leaf3"] for b in range(3)]
        bound = single_class_delays(
            star[1], routes, voice, 0.04, n_mode="per_server"
        )
        assert bound.safe
        assert dist.quantile(0.999) < bound.worst_route_delay

    def test_validation(self, star, voice_registry):
        with pytest.raises(SimulationError):
            estimate_delay_distribution(
                star[1], voice_registry, [], class_name="voice",
                packet_size=640,
            )


class TestCalibration:
    def test_calibration_on_star(self, star, voice_registry, voice):
        """Poisson voice flows on a hub tolerate heavy overbooking."""
        net, graph = star

        def reference(factor):
            # Deterministic certificate for alpha=0.01: 31 flows/link;
            # scale the converging population with the factor.
            per_branch = max(1, int(31 * factor / 3))
            return _converging_flows(star, per_branch)

        # Note the statistics: with ~1k pooled packets, zero observed
        # misses still only certify ~3/n ≈ 3e-3, so the target must sit
        # above the rule-of-three floor for this sample size.
        result = calibrate_overbooking(
            graph,
            voice_registry,
            class_name="voice",
            deadline=voice.deadline,
            reference_flows=reference,
            target_miss=1e-2,
            packet_size=640,
            factors=(1.0, 2.0, 4.0),
            horizon=0.3,
            replications=2,
            seed=3,
        )
        # Voice at these levels never misses a 100 ms deadline on a
        # 100 Mbps hub: full overbooking range accepted.
        assert result.factor == 4.0
        assert result.extra_capacity == pytest.approx(3.0)
        assert result.distribution is not None
        assert all(u <= 1e-2 for _, _, u in result.evaluations)

    def test_calibration_stops_at_first_failure(self, star,
                                                voice_registry, voice):
        """A tight deadline caps the factor below the scan maximum."""
        net, graph = star

        # Deadline just above the lone-packet transmission time: any
        # queueing at all causes misses once the hub is oversubscribed.
        tight_deadline = 3 * 640 / 100e6 * 1.5

        def reference(factor):
            per_branch = max(1, int(400 * factor))
            return _converging_flows(star, per_branch)

        result = calibrate_overbooking(
            graph,
            voice_registry,
            class_name="voice",
            deadline=tight_deadline,
            reference_flows=reference,
            target_miss=1e-4,
            packet_size=640,
            factors=(1.0, 4.0, 16.0, 64.0),
            horizon=0.2,
            replications=1,
            seed=4,
        )
        assert result.factor < 64.0
        assert len(result.evaluations) < 4 or result.evaluations[-1][2] > 1e-4

    def test_validation(self, star, voice_registry, voice):
        with pytest.raises(ConfigurationError):
            calibrate_overbooking(
                star[1], voice_registry, class_name="voice",
                deadline=voice.deadline,
                reference_flows=lambda f: [], target_miss=0.0,
                packet_size=640,
            )
        with pytest.raises(ConfigurationError):
            calibrate_overbooking(
                star[1], voice_registry, class_name="voice",
                deadline=voice.deadline,
                reference_flows=lambda f: [], target_miss=0.5,
                packet_size=640, factors=(2.0, 1.0),
            )
