"""Adversarial flow schedules through the chaos harness."""

import pytest

from repro.config import configure
from repro.errors import FaultInjectionError
from repro.faults import (
    ChaosHarness,
    adversarial_flow_schedule,
    configured_flow_schedule,
    default_link_failure_scenario,
)
from repro.topology import ring_network
from repro.traffic import ClassRegistry
from repro.traffic.generators import voice_class
from repro.workload import AdversaryModel

pytestmark = pytest.mark.adversarial

HORIZON = 1.0
MODEL = AdversaryModel(rate=32.0, burst=8)


@pytest.fixture(scope="module")
def cfg():
    network = ring_network(6)
    registry = ClassRegistry.two_class(voice_class())
    pairs = [(f"r{i}", f"r{(i + 3) % 6}") for i in range(3)]
    return configure(
        network, registry, {"voice": 0.35}, pairs=pairs,
        routing="shortest-path",
    )


@pytest.fixture(scope="module")
def flows(cfg):
    return adversarial_flow_schedule(
        cfg, "voice", horizon=HORIZON, seed=3, model=MODEL
    )


class TestSchedule:
    def test_restricted_to_configured_pairs(self, cfg, flows):
        pairs = set(cfg.routes)
        for event in flows:
            if event.kind == "arrival":
                assert (
                    event.flow.source, event.flow.destination
                ) in pairs

    def test_arrivals_trimmed_to_horizon(self, flows):
        arrivals = [e for e in flows if e.kind == "arrival"]
        assert arrivals
        assert all(e.time < HORIZON for e in arrivals)

    def test_burst_packed(self, flows):
        by_time = {}
        for e in flows:
            if e.kind == "arrival":
                by_time.setdefault(e.time, []).append(e)
        assert max(len(v) for v in by_time.values()) == MODEL.burst

    def test_every_arrival_eventually_departs(self, flows):
        arrived = [e.flow_id for e in flows if e.kind == "arrival"]
        departed = [
            e.flow_id for e in flows if e.kind == "departure"
        ]
        assert sorted(arrived) == sorted(departed)

    def test_deterministic(self, cfg, flows):
        again = adversarial_flow_schedule(
            cfg, "voice", horizon=HORIZON, seed=3, model=MODEL
        )
        assert [
            (e.time, e.kind, e.flow_id) for e in flows
        ] == [(e.time, e.kind, e.flow_id) for e in again]

    @pytest.mark.parametrize("seed, digest", [
        (3, "dfc96d2598f1f06b3226c5ea887b0fc4a4efb8943cc05c6d6d01748cf2d8fd90"),
        (7, "79c9f5282eb1cf97462acb51a446356b340feff27bdb203b22d1e5ea55f77418"),
    ])
    def test_stream_pinned(self, cfg, stream_digest, seed, digest):
        """Taken at PR 19, when this converted the engine's events
        into a second event type; now it only trims to the horizon."""
        events = adversarial_flow_schedule(
            cfg, "voice", horizon=HORIZON, seed=seed, model=MODEL
        )
        assert len(events) == 64
        assert stream_digest(events) == digest

    def test_denser_than_the_poisson_twin(self, cfg, flows):
        poisson = configured_flow_schedule(
            cfg, "voice", arrival_rate=MODEL.rate, mean_holding=1.0,
            horizon=HORIZON, seed=3,
        )
        adv_times = sorted(
            {e.time for e in flows if e.kind == "arrival"}
        )
        poisson_times = sorted(
            {e.time for e in poisson if e.kind == "departure"}
        )
        # The adversary packs its arrivals into far fewer distinct
        # instants than a Poisson stream of the same rate.
        assert len(adv_times) < len(poisson_times)

    def test_bad_parameters_rejected(self, cfg):
        with pytest.raises(FaultInjectionError):
            adversarial_flow_schedule(
                cfg, "voice", horizon=0.0, seed=1
            )
        with pytest.raises(Exception):
            adversarial_flow_schedule(
                cfg, "no-such-class", horizon=1.0, seed=1
            )


class TestHarness:
    def test_chaos_run_survivors_hold(self, cfg, flows):
        harness = ChaosHarness(cfg)
        report = harness.run(
            flows,
            default_link_failure_scenario(
                cfg, horizon=HORIZON, down_at=0.3, up_at=0.7
            ),
            horizon=HORIZON,
            simulate_packets=False,
        )
        assert report.survivors_held()
        assert len(report.transitions) == 2
