"""Multi-class safe route selection (Section 5.4 variation)."""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.analysis import multi_class_delays, single_class_delays
from repro.errors import AnalysisError, RoutingError
from repro.routing import (
    HeuristicOptions,
    MultiClassRouteSelector,
    SafeRouteSelector,
)
from repro.topology import LinkServerGraph
from repro.traffic import ClassRegistry, TrafficClass, video_class, voice_class

VOICE_PAIRS = [
    ("Seattle", "Miami"),
    ("Boston", "Phoenix"),
    ("Chicago", "Dallas"),
]
VIDEO_PAIRS = [
    ("NewYork", "LosAngeles"),
    ("Denver", "WashingtonDC"),
]


@pytest.fixture(scope="module")
def registry():
    return ClassRegistry(
        [voice_class(), video_class(), TrafficClass.best_effort()]
    )


@pytest.fixture(scope="module")
def selector(mci, registry):
    return MultiClassRouteSelector(mci, registry)


ALPHAS = {"voice": 0.10, "video": 0.15}


def test_success_routes_all_classes(selector):
    out = selector.select(
        {"voice": VOICE_PAIRS, "video": VIDEO_PAIRS}, ALPHAS
    )
    assert out.success
    assert set(out.routes["voice"]) == set(VOICE_PAIRS)
    assert set(out.routes["video"]) == set(VIDEO_PAIRS)
    assert out.num_routed == 5
    assert out.verification is not None and out.verification.safe


def test_outcome_is_certified(mci, mci_graph, registry, selector):
    out = selector.select(
        {"voice": VOICE_PAIRS, "video": VIDEO_PAIRS}, ALPHAS
    )
    routes = {name: list(by_pair.values()) for name, by_pair in out.routes.items()}
    check = multi_class_delays(mci_graph, routes, registry, ALPHAS)
    assert check.safe
    # The selector's final joint fixed point matches the re-verification.
    for name in ("voice", "video"):
        assert check.per_class[name].worst_route_delay == pytest.approx(
            out.verification.per_class[name].worst_route_delay, rel=1e-12
        )


def test_routes_are_valid_paths(mci, selector):
    out = selector.select(
        {"voice": VOICE_PAIRS, "video": VIDEO_PAIRS}, ALPHAS
    )
    for pair_map in out.routes.values():
        for (src, dst), path in pair_map.items():
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert mci.has_link(a, b)


def test_classes_can_be_partially_demanded(selector):
    out = selector.select({"voice": VOICE_PAIRS}, ALPHAS)
    assert out.success
    assert out.routes["video"] == {}


def test_failure_reports_class_and_pair(mci):
    # Video with a 2 ms deadline cannot absorb 50% voice interference:
    # every candidate route misses, and the failure names class and pair.
    registry = ClassRegistry([voice_class(), replace(video_class(), deadline=0.002)])
    sel = MultiClassRouteSelector(mci, registry)
    out = sel.select(
        {"voice": VOICE_PAIRS, "video": VIDEO_PAIRS},
        {"voice": 0.50, "video": 0.05},
    )
    assert not out.success
    assert out.failed_class == "video"
    assert out.failed_pair in VIDEO_PAIRS
    # The voice routes completed before the failure.
    assert set(out.routes["voice"]) == set(VOICE_PAIRS)


def test_unknown_class_rejected(selector):
    with pytest.raises(RoutingError):
        selector.select({"ghost": VOICE_PAIRS}, ALPHAS)


def test_duplicate_pairs_rejected(selector):
    with pytest.raises(RoutingError):
        selector.select({"voice": [VOICE_PAIRS[0]] * 2}, ALPHAS)


def test_single_class_agrees_with_single_selector(mci, mci_graph):
    """With one real-time class, the multi-class selector must reach the
    same worst-case delay as the Section 5.2 selector (same heuristics,
    Theorem 5 == Theorem 3)."""
    vc = voice_class()
    registry = ClassRegistry.two_class(vc)
    alpha = 0.35
    multi = MultiClassRouteSelector(mci, registry).select(
        {"voice": VOICE_PAIRS}, {"voice": alpha}
    )
    single = SafeRouteSelector(mci, vc).select(VOICE_PAIRS, alpha)
    assert multi.success and single.success
    assert multi.routes["voice"] == single.routes
    assert multi.verification.per_class[
        "voice"
    ].worst_route_delay == pytest.approx(
        single.worst_route_delay, rel=1e-6
    )


def test_higher_priority_protected_from_later_classes(selector, registry,
                                                      mci_graph):
    """Voice routed first stays within deadline after video is added —
    the joint check enforces it."""
    out = selector.select(
        {"voice": VOICE_PAIRS, "video": VIDEO_PAIRS},
        {"voice": 0.05, "video": 0.30},
    )
    assert out.success
    voice_res = out.verification.per_class["voice"]
    assert voice_res.meets_deadline


@pytest.mark.parametrize(
    "demand, alphas, missing",
    [({}, {"voice": 0.1}, "video"), ({"voice": []}, {}, "voice")],
)
def test_alphas_validated_without_demand(selector, demand, alphas, missing):
    """A bad alpha set is refused whether or not any pair is routed."""
    with pytest.raises(
        AnalysisError, match=f"missing alpha for class '{missing}'"
    ):
        selector.select(demand, alphas)


#: Outcomes recorded from the selector that re-solved the joint fixed
#: point from scratch for every candidate.
PINNED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "multiclass_selection.json")
    .read_text(encoding="utf-8")
)

#: The Ext-N bench demand (benchmarks/test_bench_multiclass_routing.py).
EXT_N_VOICE = [
    ("Seattle", "Miami"),
    ("Boston", "Phoenix"),
    ("SanFrancisco", "Orlando"),
    ("Chicago", "Dallas"),
    ("Detroit", "Houston"),
    ("NewYork", "LosAngeles"),
]
EXT_N_VIDEO = [
    ("Denver", "WashingtonDC"),
    ("Atlanta", "Seattle"),
    ("Miami", "Chicago"),
]


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_pinned_outcomes(mci, mci_pairs, selector, scenario):
    demand, alphas = {
        "ext_n": (
            {"voice": EXT_N_VOICE, "video": EXT_N_VIDEO},
            {"voice": 0.10, "video": 0.20},
        ),
        "ordered_pairs_120": (
            {"voice": mci_pairs[:60], "video": mci_pairs[60:120]},
            {"voice": 0.05, "video": 0.05},
        ),
    }[scenario]
    pinned = PINNED[scenario]
    out = selector.select(demand, alphas)
    assert out.success
    # Same routes, committed in the same order.
    assert {
        name: [[src, dst, path] for (src, dst), path in pair_map.items()]
        for name, pair_map in out.routes.items()
    } == pinned["routes"]
    assert out.candidates_evaluated == pinned["candidates_evaluated"]
    assert out.verification.iterations == pinned["iterations"]
    for name, worst in pinned["worst_route_delay"].items():
        assert out.verification.per_class[
            name
        ].worst_route_delay == pytest.approx(worst, rel=1e-12, abs=0)
