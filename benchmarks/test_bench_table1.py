"""Table 1: maximum utilization — lower bound, SP, heuristic, upper bound.

Paper values: 0.30 / 0.33 / 0.45 / 0.61.  The reconstruction reproduces
the analytic endpoints exactly and the qualitative ordering
LB <= SP < heuristic <= UB; the absolute SP/heuristic numbers depend on
the exact MCI link list (the paper gives only a picture), so the bench
pins what this reconstruction computes, and the paper's claims as
shape — see EXPERIMENTS.md.
"""

import pytest

from repro.config import critical_alpha, utilization_bounds
from repro.experiments import PAPER_TABLE1
from repro.experiments.table1 import Table1Result, run_table1


def test_bench_theorem4_bounds(benchmark, scenario):
    """The closed-form columns (instant; exact match with the paper)."""
    b = benchmark(
        utilization_bounds,
        scenario.fan_in,
        scenario.diameter,
        scenario.voice.burst,
        scenario.voice.rate,
        scenario.voice.deadline,
    )
    assert b.lower == pytest.approx(PAPER_TABLE1["lower_bound"], abs=0.005)
    assert b.upper == pytest.approx(PAPER_TABLE1["upper_bound"], abs=0.005)
    assert (round(b.lower, 4), round(b.upper, 4)) == (0.3, 0.6092)


def test_bench_table1_full(benchmark, scenario, capsys):
    """The complete table, printed in the paper's layout."""
    result: Table1Result = benchmark.pedantic(
        run_table1,
        kwargs={"resolution": 0.005, "scenario": scenario},
        rounds=1,
        iterations=1,
    )
    # Both searches bisect inside [LB, UB], so their own results cannot
    # leave it: the bracket is measured on the routes they return, by a
    # search over [CRITICAL_ALPHA_FLOOR, 1] that knows nothing of it, at
    # a fifth of the columns' resolution.
    measured = {
        name: critical_alpha(
            scenario.graph, list(run.routes.values()), scenario.voice,
            resolution=0.001,
        )
        for name, run in (
            ("SP", result.shortest_path), ("heuristic", result.heuristic)
        )
    }
    with capsys.disabled():
        print()
        print(result.render())
        print(f"heuristic / SP improvement: {result.improvement:.2f}x "
              f"(paper: {0.45 / 0.33:.2f}x)")
        print("critical alpha of the returned routes: " + ", ".join(
            f"{name} {alpha:.3f}" for name, alpha in measured.items()
        ))
    # The qualitative claims of Section 6:
    assert result.ordering_holds
    assert result.improvement > 1.1
    v = result.values
    assert v["lower_bound"] == pytest.approx(0.30, abs=0.005)
    assert v["upper_bound"] == pytest.approx(0.61, abs=0.005)
    for alpha in measured.values():
        assert v["lower_bound"] <= alpha <= v["upper_bound"]
    # What EXPERIMENTS.md prints, to its digits.
    sp, heur = v["shortest_path"], v["heuristic"]
    assert (round(sp, 3), round(heur, 3)) == (0.401, 0.503)
    assert round(result.improvement, 2) == 1.25
    # +10 points of every 100 Mbps link: that many more 32 kbps calls.
    assert round((heur - sp) * 100) == 10
    assert round((heur - sp) * 100e6 / scenario.voice.rate) == 317
    assert {k: round(a, 3) for k, a in measured.items()} == {
        "SP": 0.404, "heuristic": 0.503,
    }
