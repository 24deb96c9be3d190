"""Paper scenario bundle and reporting helpers."""

import pytest

from repro.topology import builders
from repro.experiments import (
    PAPER_TABLE1,
    format_percent,
    format_table,
    paper_scenario,
)


class TestPaperScenario:
    @pytest.fixture(scope="class")
    def sc(self):
        return paper_scenario()

    def test_parameters_match_section6(self, sc):
        assert sc.fan_in == 6          # N
        assert sc.diameter == 4        # L
        assert sc.capacity == 100e6    # C
        assert sc.voice.burst == 640
        assert sc.voice.rate == 32_000
        assert sc.voice.deadline == pytest.approx(0.1)

    def test_demand_covers_all_router_pairs(self, sc):
        assert len(sc.pairs) == 18 * 17

    def test_registry_is_two_class(self, sc):
        assert len(sc.registry.realtime_classes()) == 1
        assert len(sc.registry.best_effort_classes()) == 1

    def test_graph_matches_network(self, sc):
        assert sc.graph.num_servers == sc.network.num_link_servers

    def test_custom_capacity(self, monkeypatch):
        monkeypatch.setattr(builders, "DEFAULT_CAPACITY", 1e9)
        sc = paper_scenario()
        assert sc.capacity == 1e9


class TestPaperConstants:
    def test_table1_reference_values(self):
        assert PAPER_TABLE1 == {
            "lower_bound": 0.30,
            "shortest_path": 0.33,
            "heuristic": 0.45,
            "upper_bound": 0.61,
        }


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.45) == "45%"
        assert format_percent(0.3051, 1) == "30.5%"

    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"],
            [["alpha", 1], ["beta-long", 22]],
            title="T",
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        # all rows equal width
        assert len({len(l) for l in lines[1:]} ) == 1

    def test_format_table_ragged_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_format_table_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out
