"""Ext-O: the price of flow aggregation.

The gap between the per-hop-reshaping bound (which needs per-flow state
at every core server — the IntServ world) and the paper's aggregated
bounds (stateless core — the DiffServ world) quantifies what scalability
costs in certifiable utilization, across the deadline axis.
"""

import pytest

from repro.analysis import reshaped_max_alpha
from repro.config import theorem4_lower_bound, theorem4_upper_bound
from repro.experiments import format_table

PAPER = dict(fan_in=6, diameter=4, burst=640.0, rate=32_000.0)
DEADLINES = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2)


def test_bench_aggregation_price(benchmark, capsys):
    def compute():
        rows = []
        for d in DEADLINES:
            lb = theorem4_lower_bound(deadline=d, **PAPER)
            ub = theorem4_upper_bound(deadline=d, **PAPER)
            shaped = reshaped_max_alpha(deadline=d, **PAPER)
            rows.append((d, lb, ub, shaped))
        return rows

    rows = benchmark(compute)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["deadline", "aggregated LB", "aggregated UB",
                 "per-hop reshaping", "aggregation price"],
                [
                    [
                        f"{d * 1e3:.0f} ms",
                        f"{lb:.3f}",
                        f"{ub:.3f}",
                        f"{shaped:.3f}",
                        f"{(shaped - ub) * 100:.0f} pts",
                    ]
                    for d, lb, ub, shaped in rows
                ],
                title=(
                    "Ext-O: certifiable utilization, stateless core vs "
                    "per-flow reshaping (VoIP class)"
                ),
            )
        )
    for d, lb, ub, shaped in rows:
        assert lb <= ub <= shaped + 1e-12
    # At the paper's operating point the price is large (~0.39 of a link).
    d, lb, ub, shaped = rows[DEADLINES.index(0.1)]
    assert shaped - ub > 0.3
    # What EXPERIMENTS.md prints, to its digits.
    assert round(shaped - ub, 2) == 0.39
    assert {
        d: tuple(round(x, 3) for x in (lb, ub, shaped))
        for d, lb, ub, shaped in rows if d in (0.01, 0.05, 0.1)
    } == {
        0.01: (0.107, 0.125, 0.146),
        0.05: (0.250, 0.411, 0.667),
        0.1: (0.300, 0.609, 1.000),
    }
