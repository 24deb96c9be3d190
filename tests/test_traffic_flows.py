"""Flow specifications and flow sets."""

import pytest

from repro.errors import TrafficError
from repro.traffic import FlowSpec, fresh_flow_id


def _flow(i=1, src="a", dst="b", cls="voice", route=None):
    return FlowSpec(
        flow_id=i, class_name=cls, source=src, destination=dst, route=route
    )


class TestFlowSpec:
    def test_pair(self):
        assert _flow().pair == ("a", "b")

    def test_source_equals_destination_rejected(self):
        with pytest.raises(TrafficError):
            _flow(src="a", dst="a")

    def test_route_endpoints_must_match(self):
        with pytest.raises(TrafficError):
            _flow(route=("a", "c"))  # ends at c, not b

    def test_route_too_short(self):
        with pytest.raises(TrafficError):
            FlowSpec(1, "voice", "a", "b", route=("a",))

    def test_route_with_loop_rejected(self):
        with pytest.raises(TrafficError):
            _flow(route=("a", "c", "a", "b"))

    def test_route_normalized_to_tuple(self):
        f = _flow(route=["a", "c", "b"])
        assert f.route == ("a", "c", "b")

    def test_fresh_ids_monotone(self):
        a, b = fresh_flow_id(), fresh_flow_id()
        assert b > a
