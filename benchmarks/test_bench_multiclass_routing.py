"""Ext-N: multi-class safe route selection (the Section 5.4 variation).

Voice + video demand routed jointly under Theorem 5 safety: success rate,
per-class delay margins, and the cost of the joint candidate checks.
"""

import pytest

from repro.experiments import format_table
from repro.routing import MultiClassRouteSelector
from repro.traffic import ClassRegistry, TrafficClass, video_class, voice_class

VOICE_PAIRS = [
    ("Seattle", "Miami"),
    ("Boston", "Phoenix"),
    ("SanFrancisco", "Orlando"),
    ("Chicago", "Dallas"),
    ("Detroit", "Houston"),
    ("NewYork", "LosAngeles"),
]
VIDEO_PAIRS = [
    ("Denver", "WashingtonDC"),
    ("Atlanta", "Seattle"),
    ("Miami", "Chicago"),
]
ALPHAS = {"voice": 0.10, "video": 0.20}


@pytest.fixture(scope="module")
def registry():
    return ClassRegistry(
        [voice_class(), video_class(), TrafficClass.best_effort()]
    )


def test_bench_multiclass_selection(benchmark, scenario, registry, capsys):
    selector = MultiClassRouteSelector(scenario.network, registry)
    outcome = benchmark.pedantic(
        selector.select,
        args=({"voice": VOICE_PAIRS, "video": VIDEO_PAIRS}, ALPHAS),
        rounds=1,
        iterations=1,
    )
    rows = []
    for name, c in outcome.verification.per_class.items():
        rows.append(
            [
                name,
                f"{ALPHAS[name] * 100:.0f}%",
                len(outcome.routes[name]),
                f"{c.worst_route_delay * 1e3:.2f} ms",
                f"{c.slack * 1e3:.2f} ms",
            ]
        )
    with capsys.disabled():
        print()
        print(
            format_table(
                ["class", "alpha", "routes", "worst bound", "slack"],
                rows,
                title=(
                    "Ext-N: joint multi-class route selection "
                    f"({outcome.candidates_evaluated} candidates checked)"
                ),
            )
        )
    assert outcome.success
    assert outcome.verification.safe
    # What EXPERIMENTS.md prints, to its digits.
    assert outcome.num_routed == 9
    assert outcome.candidates_evaluated == 72
    assert {
        name: round(c.worst_route_delay * 1e3, 1)
        for name, c in outcome.verification.per_class.items()
    } == {"voice": 7.7, "video": 5.7}
    # The joint check evaluated more candidates than committed routes
    # (min-delay choice scans groups).
    assert outcome.candidates_evaluated > outcome.num_routed
    # (No cross-class delay comparison here: the two classes run on
    # different pair sets with different route lengths, so the priority
    # ladder is only meaningful on shared routes — covered by
    # tests/test_analysis_multiclass.py.)
