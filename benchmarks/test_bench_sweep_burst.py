"""Ext-B: maximum utilization vs leaky-bucket burst size.

Burstier sources consume more of the schedulable region; this sweep
quantifies the decay around the paper's T = 640-bit voice burst.  Only
``T / D`` enters the analysis, so the T = 320 and T = 640 rows at the
paper's 100 ms deadline are Ext-A's D = 0.2 and D = 0.1 rows: the
searches run here only for the row Ext-A does not have.
"""

import pytest

from repro.experiments import sweep_burst, sweep_deadline
from test_bench_sweep_deadline import ROWS as DEADLINE_ROWS

#: Bursts whose row is Ext-A's at this deadline (index into its ROWS).
SAME_AS_DEADLINE = {320.0: (0.20, 2), 640.0: (0.10, 1)}


def test_bench_sweep_burst_bounds(benchmark, scenario, capsys):
    grid = (160.0, 320.0, 640.0, 1280.0, 2560.0, 5120.0)
    sweep = benchmark(sweep_burst, grid, scenario=scenario)
    with capsys.disabled():
        print()
        print(sweep.render())
    assert sweep.monotone_lower_bound(increasing=False)
    ubs = [p.upper_bound for p in sweep.points]
    assert ubs == sorted(ubs, reverse=True)
    by_deadline = sweep_deadline(
        [d for d, _ in SAME_AS_DEADLINE.values()], scenario=scenario
    )
    for point, twin in zip(
        (p for p in sweep.points if p.parameter in SAME_AS_DEADLINE),
        by_deadline.points,
    ):
        assert (point.lower_bound, point.upper_bound) == pytest.approx(
            (twin.lower_bound, twin.upper_bound), rel=1e-12
        )


def test_bench_sweep_burst_with_searches(benchmark, scenario, capsys):
    sweep = benchmark.pedantic(
        sweep_burst,
        args=((2560.0,),),
        kwargs={
            "scenario": scenario,
            "include_searches": True,
            "resolution": 0.02,
        },
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(sweep.render())
    (p,) = sweep.points
    assert p.shortest_path is not None and p.heuristic is not None
    assert p.lower_bound - 1e-9 <= p.shortest_path
    assert p.heuristic <= p.upper_bound + 1e-9
    # What EXPERIMENTS.md prints, to its digits.
    assert tuple(
        round(x, 3)
        for x in (p.lower_bound, p.shortest_path, p.heuristic, p.upper_bound)
    ) == (0.188, 0.205, 0.223, 0.258)
    # Burstier traffic cannot increase the achievable utilization.
    sps = [DEADLINE_ROWS[row][1] for _, row in SAME_AS_DEADLINE.values()]
    assert sps + [p.shortest_path] == sorted(sps + [p.shortest_path], reverse=True)
