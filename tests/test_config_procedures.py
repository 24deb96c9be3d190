"""Configuration types 1 and 2 (Section 5) and the multi-class
proportional maximization extension."""

import pytest

from repro.config import (
    maximize_multiclass_scale,
    verify_safe_assignment,
)
from repro.errors import AnalysisError, ConfigurationError, InfeasibleUtilization
from repro.routing import SafeRouteSelector, shortest_path_routes
from repro.traffic import ClassRegistry, TrafficClass, video_class, voice_class

SUBSET = [
    ("Seattle", "Miami"),
    ("Boston", "Phoenix"),
    ("Chicago", "Dallas"),
    ("NewYork", "LosAngeles"),
]


def test_type1_verification_alias(mci, mci_pairs, voice_registry):
    """verify_safe_assignment *is* the Figure 2 procedure."""
    from repro.analysis import verify_assignment

    assert verify_safe_assignment is verify_assignment


def test_type2_select_safe_routes(mci, voice):
    """Configuration type 2 is the Section 5.2 selector."""
    out = SafeRouteSelector(mci, voice).select(SUBSET, 0.4)
    assert out.success
    assert set(out.routes) == set(SUBSET)


def test_type2_alpha_validation(mci, voice):
    with pytest.raises(AnalysisError):
        SafeRouteSelector(mci, voice).select(SUBSET, 1.5)


class TestMulticlassScale:
    @pytest.fixture()
    def registry(self):
        return ClassRegistry([voice_class(), video_class()])

    @pytest.fixture()
    def routes(self, mci):
        sp = shortest_path_routes(mci, SUBSET)
        return {"voice": list(sp.values()), "video": list(sp.values())}

    def test_scale_is_feasible_certificate(self, mci, registry, routes):
        res = maximize_multiclass_scale(
            mci, routes, registry, {"voice": 1.0, "video": 2.0},
            resolution=0.01,
        )
        assert res.verification.success
        assert res.alphas["video"] == pytest.approx(
            2 * res.alphas["voice"], rel=1e-9
        )
        assert 0 < res.scale <= 1.0

    def test_slightly_above_scale_fails(self, mci, registry, routes):
        res = maximize_multiclass_scale(
            mci, routes, registry, {"voice": 1.0, "video": 2.0},
            resolution=0.005,
        )
        bumped = {k: min(v * 1.1, 0.99) for k, v in res.alphas.items()}
        if sum(bumped.values()) <= 1.0:
            check = verify_safe_assignment(mci, routes, registry, bumped)
            assert not check.success

    def test_weights_must_be_positive(self, mci, registry, routes):
        with pytest.raises(ConfigurationError):
            maximize_multiclass_scale(
                mci, routes, registry, {"voice": 1.0, "video": 0.0}
            )

    def test_total_utilization_within_one(self, mci, registry, routes):
        res = maximize_multiclass_scale(
            mci, routes, registry, {"voice": 3.0, "video": 3.0},
            resolution=0.01,
        )
        assert sum(res.alphas.values()) <= 1.0 + 1e-9
