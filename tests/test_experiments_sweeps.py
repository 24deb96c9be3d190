"""Sensitivity sweeps (analytic parts; searches are exercised in benches)."""

import pytest

from repro.experiments import (
    paper_scenario,
    sweep_burst,
    sweep_deadline,
)


@pytest.fixture(scope="module")
def sc():
    return paper_scenario()


def test_deadline_sweep_monotone(sc):
    sweep = sweep_deadline(scenario=sc)
    assert sweep.monotone_lower_bound(increasing=True)
    ubs = [p.upper_bound for p in sweep.points]
    assert ubs == sorted(ubs)


def test_deadline_sweep_contains_paper_point(sc):
    sweep = sweep_deadline(deadlines=(0.1,), scenario=sc)
    point = sweep.points[0]
    assert point.lower_bound == pytest.approx(0.30)
    assert point.upper_bound == pytest.approx(0.609, abs=1e-3)


def test_burst_sweep_monotone_decreasing(sc):
    sweep = sweep_burst(scenario=sc)
    assert sweep.monotone_lower_bound(increasing=False)


def test_bounds_always_ordered_in_sweeps(sc):
    for sweep in (sweep_deadline(scenario=sc), sweep_burst(scenario=sc)):
        for p in sweep.points:
            assert p.lower_bound <= p.upper_bound + 1e-9


def test_render_produces_table(sc):
    out = sweep_deadline(deadlines=(0.05, 0.1), scenario=sc).render()
    assert "deadline" in out
    assert "LB" in out and "UB" in out
    assert len(out.splitlines()) == 5  # title + header + rule + 2 rows


def test_searches_included_when_requested(sc):
    sweep = sweep_deadline(
        deadlines=(0.1,), scenario=sc, include_searches=True,
        resolution=0.05,
    )
    p = sweep.points[0]
    assert p.shortest_path is not None
    assert p.heuristic is not None
    assert p.lower_bound - 1e-9 <= p.shortest_path <= p.upper_bound + 1e-9
    assert p.heuristic >= p.shortest_path - 0.05


def test_cross_topology_table_rows_in_input_order():
    from repro.experiments import cross_topology_table
    from repro.topology import mci_backbone, nsfnet_backbone
    from repro.traffic import voice_class

    rows = cross_topology_table(
        [("NSFNET", nsfnet_backbone()), ("MCI", mci_backbone())],
        voice_class(),
        resolution=0.05,
    )
    assert [r.name for r in rows] == ["NSFNET", "MCI"]
    for row in rows:
        assert row.ordering_holds
