"""Ext-D: multi-class delay bounds (Section 5.4, Theorem 5).

Voice + video + best-effort on the MCI backbone with shortest-path
routes: per-class worst-case end-to-end bounds, the proportional
utilization maximization, and solver cost.
"""

import pytest

from repro.analysis import multi_class_delays
from repro.config import maximize_multiclass_scale
from repro.experiments import format_table
from repro.traffic import ClassRegistry, TrafficClass, video_class, voice_class

ALPHAS = {"voice": 0.10, "video": 0.20}


@pytest.fixture(scope="module")
def registry():
    return ClassRegistry(
        [voice_class(), video_class(), TrafficClass.best_effort()]
    )


@pytest.fixture(scope="module")
def routes(sp_routes):
    shared = list(sp_routes.values())
    return {"voice": shared, "video": shared}


def test_bench_multiclass_solve(benchmark, scenario, registry, routes,
                                capsys):
    result = benchmark(
        multi_class_delays, scenario.graph, routes, registry, ALPHAS
    )
    rows = [
        [
            name,
            f"{ALPHAS[name]:.2f}",
            f"{c.deadline * 1e3:.0f} ms",
            f"{c.worst_route_delay * 1e3:.2f} ms",
            f"{c.slack * 1e3:.2f} ms",
        ]
        for name, c in result.per_class.items()
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["class", "alpha", "deadline", "worst bound", "slack"],
                rows,
                title="Multi-class delay bounds (MCI, SP routes)",
            )
        )
    assert result.safe
    # Priority structure shows up in the bounds:
    assert (
        result.per_class["voice"].worst_route_delay
        < result.per_class["video"].worst_route_delay
    )
    # What EXPERIMENTS.md prints, to its digits.
    assert {
        name: round(c.worst_route_delay * 1e3, 1)
        for name, c in result.per_class.items()
    } == {"voice": 8.5, "video": 31.3}


def test_bench_multiclass_scale_maximization(benchmark, scenario, registry,
                                             routes, capsys):
    result = benchmark.pedantic(
        maximize_multiclass_scale,
        args=(scenario.network, routes, registry, {"voice": 1.0, "video": 2.0}),
        kwargs={"resolution": 0.005},
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(
            f"max proportional scale: t = {result.scale:.3f} -> "
            + ", ".join(
                f"{k} = {v:.3f}" for k, v in sorted(result.alphas.items())
            )
        )
    assert result.verification.success
    assert sum(result.alphas.values()) <= 1.0
    # What EXPERIMENTS.md prints, to its digits.
    assert round(result.scale, 2) == 0.17
    assert {k: round(v * 100) for k, v in result.alphas.items()} == {
        "voice": 17, "video": 35,
    }
