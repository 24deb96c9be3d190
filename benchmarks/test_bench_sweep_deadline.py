"""Ext-A: maximum utilization vs end-to-end deadline.

Extends Table 1 along the deadline axis: the Theorem 4 interval and both
search columns as ``D`` varies around the paper's 100 ms operating point.
"""

from repro.experiments import sweep_deadline

DEADLINES = (0.06, 0.10, 0.20)
#: (LB, SP, heuristic, UB) per deadline, at resolution 0.02.
ROWS = [
    (0.265, 0.338, 0.398, 0.459),
    (0.300, 0.397, 0.493, 0.609),
    (0.333, 0.478, 0.654, 0.846),
]


def test_bench_sweep_deadline_bounds(benchmark, scenario, capsys):
    """Analytic columns over a denser deadline grid."""
    grid = (0.04, 0.06, 0.08, 0.10, 0.15, 0.20, 0.30, 0.40)
    sweep = benchmark(sweep_deadline, grid, scenario=scenario)
    with capsys.disabled():
        print()
        print(sweep.render())
    assert sweep.monotone_lower_bound(increasing=True)


def test_bench_sweep_deadline_with_searches(benchmark, scenario, capsys):
    """Search columns at three deadlines (coarse resolution for speed)."""
    sweep = benchmark.pedantic(
        sweep_deadline,
        args=(DEADLINES,),
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
    for p in sweep.points:
        assert p.shortest_path is not None and p.heuristic is not None
        assert p.lower_bound - 1e-9 <= p.shortest_path
        assert p.heuristic <= p.upper_bound + 1e-9
        assert p.heuristic >= p.shortest_path - 0.02
    # More deadline headroom never shrinks the achievable utilization.
    sps = [p.shortest_path for p in sweep.points]
    assert sps == sorted(sps)
    # What EXPERIMENTS.md prints, to its digits.
    assert [
        tuple(round(x, 3) for x in (
            p.lower_bound, p.shortest_path, p.heuristic, p.upper_bound
        ))
        for p in sweep.points
    ] == ROWS
    # The heuristic's edge over SP widens with the deadline.
    edges = [round(p.heuristic - p.shortest_path, 2) for p in sweep.points]
    assert (edges[0], edges[-1]) == (0.06, 0.18)
