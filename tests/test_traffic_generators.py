"""Workload generators."""

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.traffic import all_ordered_pairs
from repro.traffic.generators import video_class, voice_class
from repro.workload import poisson_flow_schedule


def test_class_presets_have_distinct_priorities():
    classes = [voice_class(), video_class()]
    priorities = [c.priority for c in classes]
    assert priorities == sorted(priorities)
    assert len(set(priorities)) == 2


def test_all_ordered_pairs_mci(mci, mci_pairs):
    n = mci.num_routers
    assert len(mci_pairs) == n * (n - 1)  # 306 for 18 routers
    assert ("Seattle", "Miami") in mci_pairs
    assert all(u != v for u, v in mci_pairs)


def test_all_ordered_pairs_respects_edge_flag():
    from repro.topology import Network

    net = Network()
    for name in ("a", "b", "c"):
        net.add_router(name, is_edge=name != "b")
    net.add_link("a", "b")
    net.add_link("b", "c")
    pairs = all_ordered_pairs(net)
    assert set(pairs) == {("a", "c"), ("c", "a")}


class TestPoissonSchedule:
    def test_deterministic(self, mci):
        a = poisson_flow_schedule(mci, "voice", 5.0, 10.0, 20.0, seed=11)
        b = poisson_flow_schedule(mci, "voice", 5.0, 10.0, 20.0, seed=11)
        assert [(e.time, e.kind, e.flow_id) for e in a] == [
            (e.time, e.kind, e.flow_id) for e in b
        ]

    def test_sorted_and_paired(self, mci):
        events = poisson_flow_schedule(mci, "voice", 5.0, 10.0, 20.0, seed=5)
        times = [e.time for e in events]
        assert times == sorted(times)
        arrivals = {e.flow_id for e in events if e.kind == "arrival"}
        departures = {e.flow_id for e in events if e.kind == "departure"}
        assert arrivals == departures

    def test_arrival_before_departure(self, mci):
        events = poisson_flow_schedule(mci, "voice", 5.0, 10.0, 20.0, seed=5)
        first_seen = {}
        for e in events:
            if e.flow_id not in first_seen:
                assert e.kind == "arrival"
                first_seen[e.flow_id] = e.time

    def test_rate_roughly_matches(self, mci):
        events = poisson_flow_schedule(mci, "voice", 10.0, 5.0, 100.0, seed=2)
        arrivals = sum(1 for e in events if e.kind == "arrival")
        assert 700 <= arrivals <= 1300  # 10/s over 100 s, generous window

    def test_validation(self, mci):
        with pytest.raises(TrafficError):
            poisson_flow_schedule(mci, "voice", 0.0, 1.0, 1.0, seed=0)

    @pytest.mark.parametrize("seed, count, digest", [
        (5, 214, "2305afbda1cd425d216e6c7eb62f40fad3a70197"
                 "c1573f1537b8f2c9330d08b6"),
        (11, 200, "e0ad5ad6ead9906e4bd22864b41b4b762f987312"
                  "32b3d575f666c3c04f03b1ca"),
    ])
    def test_stream_pinned(self, mci, stream_digest, seed, count, digest):
        """Taken at PR 19, when this lived in ``traffic.generators``
        and spoke an event type of its own: RNG call order and flow ids
        are part of every number the dynamic experiments pin."""
        events = poisson_flow_schedule(
            mci, "voice", 5.0, 10.0, 20.0, seed=seed
        )
        assert len(events) == count
        assert stream_digest(events) == digest
