"""Exception hierarchy contracts."""

import pytest

from repro import errors


def test_all_derive_from_repro_error():
    for name in errors.__all__:
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)


def test_unknown_node_carries_value():
    e = errors.UnknownNodeError("Chicago")
    assert e.node == "Chicago"
    assert "Chicago" in str(e)


def test_unknown_link_carries_endpoints():
    e = errors.UnknownLinkError("a", "b")
    assert (e.tail, e.head) == ("a", "b")


def test_infeasible_utilization_interval():
    e = errors.InfeasibleUtilization(0.1, 0.6)
    assert (e.low, e.high) == (0.1, 0.6)


def test_family_catchable_together():
    with pytest.raises(errors.ReproError):
        raise errors.AdmissionError("nope")
    with pytest.raises(errors.TopologyError):
        raise errors.UnknownNodeError("x")
    with pytest.raises(errors.TrafficError):
        raise errors.EnvelopeError("bad")
    with pytest.raises(errors.RoutingError):
        raise errors.NoRouteError("a", "b")
    with pytest.raises(errors.ConfigurationError):
        raise errors.InfeasibleUtilization(0.0, 1.0)
