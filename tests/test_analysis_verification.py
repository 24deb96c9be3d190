"""The Figure 2 verification procedure."""

from dataclasses import replace

import pytest

from repro.analysis import verify_assignment
from repro.errors import ConfigurationError
from repro.routing import shortest_path_routes
from repro.topology import LinkServerGraph
from repro.traffic import ClassRegistry, TrafficClass, video_class, voice_class


def test_success_on_mci_at_lower_bound(mci, mci_pairs, voice_registry,
                                       voice):
    routes = list(shortest_path_routes(mci, mci_pairs).values())
    result = verify_assignment(
        mci, routes, voice_registry, {"voice": 0.2999}
    )
    assert result.success
    assert result.reason == ""
    assert result.worst_route_delay["voice"] <= voice.deadline
    assert result.slack["voice"] >= 0


def test_failure_reports_reason(mci, mci_pairs, voice_registry):
    routes = list(shortest_path_routes(mci, mci_pairs).values())
    result = verify_assignment(mci, routes, voice_registry, {"voice": 0.95})
    assert not result.success
    assert result.reason  # human-readable explanation present


def test_accepts_prebuilt_graph(mci, mci_graph, mci_pairs, voice_registry):
    routes = list(shortest_path_routes(mci, mci_pairs).values())
    a = verify_assignment(mci, routes, voice_registry, {"voice": 0.25})
    b = verify_assignment(mci_graph, routes, voice_registry, {"voice": 0.25})
    assert a.success == b.success
    assert a.worst_route_delay["voice"] == pytest.approx(
        b.worst_route_delay["voice"]
    )


def test_alpha_validation(line4, voice_registry):
    with pytest.raises(ConfigurationError):
        verify_assignment(
            line4, [["r0", "r1"]], voice_registry, {"voice": 0.0}
        )
    with pytest.raises(ConfigurationError):
        verify_assignment(line4, [["r0", "r1"]], voice_registry, {})


def test_requires_realtime_class(line4):
    registry = ClassRegistry([TrafficClass.best_effort()])
    with pytest.raises(ConfigurationError):
        verify_assignment(line4, [["r0", "r1"]], registry, {})


def test_multiclass_shared_routes(line4):
    registry = ClassRegistry([voice_class(), video_class()])
    routes = [["r0", "r1", "r2"]]
    result = verify_assignment(
        line4, routes, registry, {"voice": 0.1, "video": 0.2}
    )
    assert result.success
    assert set(result.worst_route_delay) == {"voice", "video"}


def test_multiclass_per_class_routes(line4):
    registry = ClassRegistry([voice_class(), video_class()])
    result = verify_assignment(
        line4,
        {"voice": [["r0", "r1"]], "video": [["r2", "r3"]]},
        registry,
        {"voice": 0.2, "video": 0.2},
    )
    assert result.success


def test_multiclass_missing_route_map_entry(line4):
    registry = ClassRegistry([voice_class(), video_class()])
    with pytest.raises(ConfigurationError):
        verify_assignment(
            line4,
            {"voice": [["r0", "r1"]]},
            registry,
            {"voice": 0.2, "video": 0.2},
        )


def test_multiclass_failure_names_class(line4):
    tight = replace(video_class(), deadline=1e-6)
    registry = ClassRegistry([voice_class(), tight])
    result = verify_assignment(
        line4,
        [["r0", "r1", "r2", "r3"]],
        registry,
        {"voice": 0.2, "video": 0.2},
    )
    assert not result.success
    assert "video" in result.reason or "deadline" in result.reason


def test_single_and_multi_paths_agree(line4):
    """The single-class fast path and the multi-class machinery agree."""
    from repro.analysis import multi_class_delays

    vc = voice_class()
    registry = ClassRegistry.two_class(vc)
    routes = [["r0", "r1", "r2"], ["r3", "r2", "r1"]]
    single = verify_assignment(line4, routes, registry, {"voice": 0.3})
    multi = multi_class_delays(
        LinkServerGraph(line4), {"voice": routes}, registry, {"voice": 0.3}
    )
    assert single.success == multi.safe
    assert single.worst_route_delay["voice"] == pytest.approx(
        multi.per_class["voice"].worst_route_delay, rel=1e-9
    )


def test_verification_monotone_in_alpha(mci, mci_pairs, voice_registry):
    """If verification fails at alpha, it fails at any larger alpha."""
    routes = list(shortest_path_routes(mci, mci_pairs).values())
    succeeded_after_failure = False
    failed = False
    for alpha in (0.2, 0.3, 0.4, 0.5, 0.6):
        ok = verify_assignment(
            mci, routes, voice_registry, {"voice": alpha}
        ).success
        if failed and ok:
            succeeded_after_failure = True
        failed = failed or not ok
    assert not succeeded_after_failure
