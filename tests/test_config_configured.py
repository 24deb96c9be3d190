"""ConfiguredNetwork facade: one-call configuration and serialization."""

import json
import math
from fractions import Fraction

import pytest

from repro.config import ConfiguredNetwork, configure
from repro.errors import ConfigurationError
from repro.routing import shortest_path_routes
from repro.topology import line_network, mci_backbone
from repro.traffic import ClassRegistry, TrafficClass, video_class, voice_class

PAIRS = [
    ("Seattle", "Miami"),
    ("Boston", "Phoenix"),
    ("Chicago", "Dallas"),
    ("NewYork", "LosAngeles"),
]


@pytest.fixture(scope="module")
def cfg(mci, voice_registry):
    return configure(
        mci, voice_registry, {"voice": 0.35}, pairs=PAIRS,
        routing="shortest-path",
    )


class TestConfigure:
    def test_shortest_path_configuration(self, cfg):
        assert cfg.verification.success
        assert set(cfg.routes) == set(PAIRS)

    def test_heuristic_configuration(self, mci, voice_registry):
        cfg = configure(
            mci, voice_registry, {"voice": 0.45}, pairs=PAIRS,
            routing="heuristic",
        )
        assert cfg.verification.success

    def test_default_demand_is_all_pairs(self, mci, voice_registry):
        cfg = configure(
            mci, voice_registry, {"voice": 0.30}, routing="shortest-path"
        )
        assert len(cfg.routes) == 18 * 17

    def test_infeasible_alpha_raises(self, mci, voice_registry):
        with pytest.raises(ConfigurationError):
            configure(
                mci, voice_registry, {"voice": 0.95}, pairs=PAIRS,
                routing="shortest-path",
            )

    def test_heuristic_failure_raises(self, mci, voice_registry):
        with pytest.raises(ConfigurationError):
            configure(
                mci, voice_registry, {"voice": 0.95}, pairs=PAIRS,
                routing="heuristic",
            )

    def test_unknown_routing(self, mci, voice_registry):
        with pytest.raises(ConfigurationError):
            configure(
                mci, voice_registry, {"voice": 0.3}, routing="oracle"
            )

    def test_heuristic_multiclass_rejected(self, mci):
        registry = ClassRegistry([voice_class(), video_class()])
        with pytest.raises(ConfigurationError):
            configure(
                mci, registry, {"voice": 0.1, "video": 0.1},
                pairs=PAIRS, routing="heuristic",
            )

    def test_multiclass_via_shortest_path(self, mci):
        registry = ClassRegistry([voice_class(), video_class()])
        cfg = configure(
            mci, registry, {"voice": 0.1, "video": 0.2},
            pairs=PAIRS, routing="shortest-path",
        )
        assert cfg.verification.success
        assert set(cfg.alphas) == {"voice", "video"}


class TestBundle:
    def test_unverified_bundle_rejected(self, mci, voice_registry):
        routes = shortest_path_routes(mci, PAIRS)
        with pytest.raises(ConfigurationError):
            ConfiguredNetwork(
                network=mci,
                registry=voice_registry,
                alphas={"voice": 0.95},
                routes=dict(routes),
            )

    def test_route_for(self, cfg):
        path = cfg.routes[("Seattle", "Miami")]
        assert path[0] == "Seattle" and path[-1] == "Miami"
        assert ("Miami", "Seattle") not in cfg.routes  # not in the demand

    def test_slots_per_link(self, cfg):
        exact = Fraction(0.35) * Fraction(100e6) / Fraction(32_000)
        assert cfg.slots_per_link("voice") == math.floor(exact)

    def test_controller_factory(self, cfg):
        from repro.traffic import FlowSpec

        ctrl = cfg.controller()
        assert ctrl.admit(
            FlowSpec("x", "voice", "Seattle", "Miami")
        ).admitted

    def test_simulator_factory(self, cfg):
        from repro.simulation import PacketPattern
        from repro.traffic import FlowSpec

        sim = cfg.simulator()
        sim.add_flow(
            FlowSpec("x", "voice", "Seattle", "Miami"),
            cfg.routes[("Seattle", "Miami")],
            PacketPattern("periodic", packet_size=640),
        )
        report = sim.run(horizon=0.1)
        assert report.conserved


class TestSerialization:
    def test_roundtrip(self, cfg):
        back = ConfiguredNetwork.from_dict(cfg.to_dict())
        assert back.alphas == cfg.alphas
        assert back.routes == cfg.routes
        assert back.registry.names() == cfg.registry.names()
        assert back.verification.success

    def test_best_effort_deadline_roundtrip(self, mci):
        registry = ClassRegistry.two_class(voice_class())
        cfg = configure(
            mci, registry, {"voice": 0.3}, pairs=PAIRS,
            routing="shortest-path",
        )
        back = ConfiguredNetwork.from_dict(cfg.to_dict())
        be = back.registry.best_effort_classes()[0]
        assert math.isinf(be.deadline)

    def test_json_file_roundtrip(self, cfg, tmp_path):
        path = tmp_path / "cfg.json"
        cfg.save(str(path))
        loaded = ConfiguredNetwork.load(str(path))
        assert loaded.routes == cfg.routes
        # The file is plain JSON a router-management plane could consume.
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1

    def test_unknown_schema_version_rejected(self, cfg):
        data = cfg.to_dict()
        data["schema_version"] = 99
        with pytest.raises(ConfigurationError):
            ConfiguredNetwork.from_dict(data)

    def test_tampered_configuration_fails_verification(self, cfg):
        """Deserialization re-verifies: bumping alpha out of the safe
        region must be caught."""
        data = cfg.to_dict()
        data["alphas"]["voice"] = 0.99
        with pytest.raises(ConfigurationError):
            ConfiguredNetwork.from_dict(data)


class TestSimulationValidation:
    def test_validate_returns_zero_misses(self, mci, voice_registry):
        cfg = configure(
            mci, voice_registry, {"voice": 0.35},
            pairs=PAIRS, routing="shortest-path",
        )
        misses = cfg.validate_by_simulation(
            flows_per_route=2, horizon=0.4
        )
        assert misses == {"voice": 0}

    def test_validate_multiclass(self, mci):
        registry = ClassRegistry([voice_class(), video_class()])
        cfg = configure(
            mci, registry, {"voice": 0.05, "video": 0.15},
            pairs=PAIRS, routing="shortest-path",
        )
        misses = cfg.validate_by_simulation(
            flows_per_route=1, horizon=0.4
        )
        assert misses == {"voice": 0, "video": 0}
