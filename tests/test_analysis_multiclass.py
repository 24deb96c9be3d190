"""Theorem 5 multi-class bounds."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import multi_class_delays, single_class_delays
from repro.errors import AnalysisError
from repro.topology import LinkServerGraph, line_network
from repro.traffic import ClassRegistry, TrafficClass, video_class, voice_class


@pytest.fixture()
def three_class_registry():
    return ClassRegistry(
        [
            voice_class(),
            video_class(),
            TrafficClass.best_effort(),
        ]
    )


ROUTE = ["r0", "r1", "r2", "r3"]


def test_single_class_reduction(line4_graph, voice, voice_registry):
    """With one real-time class, Theorem 5 must equal Theorem 3 exactly."""
    alpha = 0.35
    routes = [ROUTE, ["r3", "r2", "r1", "r0"]]
    mc = multi_class_delays(
        line4_graph, {"voice": routes}, voice_registry, {"voice": alpha}
    )
    sc = single_class_delays(line4_graph, routes, voice, alpha)
    assert mc.safe == sc.safe
    np.testing.assert_allclose(
        mc.per_class["voice"].server_delays, sc.server_delays, atol=1e-9
    )
    np.testing.assert_allclose(
        mc.per_class["voice"].route_delays, sc.route_delays, atol=1e-9
    )


def test_two_realtime_classes_converge(line4_graph, three_class_registry):
    mc = multi_class_delays(
        line4_graph,
        {"voice": [ROUTE], "video": [ROUTE]},
        three_class_registry,
        {"voice": 0.1, "video": 0.2},
    )
    assert mc.converged
    assert mc.safe
    assert set(mc.per_class) == {"voice", "video"}


def test_lower_priority_sees_more_delay(line4_graph, three_class_registry):
    """Video (lower priority) is delayed by voice, not vice versa."""
    shared = {"voice": [ROUTE], "video": [ROUTE]}
    both = multi_class_delays(
        line4_graph, shared, three_class_registry,
        {"voice": 0.1, "video": 0.1},
    )
    # Same alpha but video carries the voice interference terms too.
    v = both.per_class["voice"].worst_route_delay
    w = both.per_class["video"].worst_route_delay
    assert w > v


def test_interference_requires_presence(line4_graph, three_class_registry):
    """Voice on a disjoint path does not delay video (route-aware masks)."""
    apart = multi_class_delays(
        line4_graph,
        {"voice": [["r3", "r2"]], "video": [["r0", "r1"]]},
        three_class_registry,
        {"voice": 0.3, "video": 0.3},
    )
    together = multi_class_delays(
        line4_graph,
        {"voice": [["r0", "r1"]], "video": [["r0", "r1"]]},
        three_class_registry,
        {"voice": 0.3, "video": 0.3},
    )
    assert (
        apart.per_class["video"].worst_route_delay
        < together.per_class["video"].worst_route_delay
    )


def test_higher_priority_unaffected_by_lower(line4_graph,
                                             three_class_registry):
    alone = multi_class_delays(
        line4_graph,
        {"voice": [ROUTE], "video": []},
        three_class_registry,
        {"voice": 0.2, "video": 0.2},
    )
    with_video = multi_class_delays(
        line4_graph,
        {"voice": [ROUTE], "video": [ROUTE]},
        three_class_registry,
        {"voice": 0.2, "video": 0.2},
    )
    assert alone.per_class["voice"].worst_route_delay == pytest.approx(
        with_video.per_class["voice"].worst_route_delay, rel=1e-9
    )


def test_total_utilization_capped(line4_graph, three_class_registry):
    with pytest.raises(AnalysisError):
        multi_class_delays(
            line4_graph,
            {"voice": [ROUTE], "video": [ROUTE]},
            three_class_registry,
            {"voice": 0.6, "video": 0.6},
        )


def test_missing_class_inputs(line4_graph, three_class_registry):
    with pytest.raises(AnalysisError):
        multi_class_delays(
            line4_graph, {"voice": [ROUTE]}, three_class_registry,
            {"voice": 0.1, "video": 0.1},
        )
    with pytest.raises(AnalysisError):
        multi_class_delays(
            line4_graph,
            {"voice": [ROUTE], "video": [ROUTE]},
            three_class_registry,
            {"voice": 0.1},
        )


def test_deadline_violation_detected(line4_graph):
    tight_video = replace(video_class(), deadline=1e-6)
    registry = ClassRegistry([voice_class(), tight_video])
    mc = multi_class_delays(
        line4_graph,
        {"voice": [ROUTE], "video": [ROUTE]},
        registry,
        {"voice": 0.2, "video": 0.2},
    )
    assert not mc.safe
    assert mc.deadline_violated


def test_monotone_in_higher_priority_alpha(line4_graph,
                                           three_class_registry):
    """More voice bandwidth -> more video delay (all else equal)."""
    delays = []
    for a_voice in (0.05, 0.15, 0.25):
        mc = multi_class_delays(
            line4_graph,
            {"voice": [ROUTE], "video": [ROUTE]},
            three_class_registry,
            {"voice": a_voice, "video": 0.1},
        )
        assert mc.safe
        delays.append(mc.per_class["video"].worst_route_delay)
    assert delays == sorted(delays)


def test_multiclass_on_mci(mci_graph, three_class_registry):
    """Three-class setup on the full evaluation topology."""
    routes = {
        "voice": [["Seattle", "Chicago", "NewYork"]],
        "video": [["Seattle", "Chicago", "NewYork", "Boston"]],
    }
    mc = multi_class_delays(
        mci_graph, routes, three_class_registry,
        {"voice": 0.2, "video": 0.2},
    )
    assert mc.safe
    assert mc.per_class["voice"].meets_deadline
    assert mc.per_class["video"].meets_deadline


def test_ext_d_scenario_is_pinned(mci, mci_graph, mci_pairs,
                                  three_class_registry):
    """Ext-D: voice 0.10 + video 0.20 on MCI shortest-path routes.  The
    worst route bounds, iteration count and verdict were recorded from
    the per-class loop that Theorem 5 had before it shared the
    single-class one; the stacked route system sums the classes in one
    cumulative sum, so the bounds may move by rounding only."""
    from repro.routing import shortest_path_routes

    shared = list(shortest_path_routes(mci, mci_pairs).values())
    mc = multi_class_delays(
        mci_graph, {"voice": shared, "video": shared},
        three_class_registry, {"voice": 0.10, "video": 0.20},
    )
    assert mc.safe
    assert mc.iterations == 18
    assert mc.per_class["voice"].worst_route_delay == pytest.approx(
        0.008464939590130394, rel=1e-12
    )
    assert mc.per_class["video"].worst_route_delay == pytest.approx(
        0.031331396849940685, rel=1e-12
    )
