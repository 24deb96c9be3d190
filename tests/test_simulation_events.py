"""Event queue semantics."""

import pytest

from repro.errors import SimulationError
from repro.simulation import EventQueue


def test_time_ordering():
    q = EventQueue()
    q.push(3.0, "c")
    q.push(1.0, "a")
    q.push(2.0, "b")
    kinds = [q.pop()[2] for _ in range(3)]
    assert kinds == ["a", "b", "c"]


def test_tie_break_is_insertion_order():
    q = EventQueue()
    q.push(1.0, "first")
    q.push(1.0, "second")
    q.push(1.0, "third")
    kinds = [q.pop()[2] for _ in range(3)]
    assert kinds == ["first", "second", "third"]


def test_payload_roundtrip():
    q = EventQueue()
    payload = {"x": 1}
    q.push(0.5, "evt", payload)
    time, _, kind, got = q.pop()
    assert time == 0.5 and kind == "evt" and got is payload


def test_unorderable_payloads_ok():
    q = EventQueue()
    q.push(1.0, "a", object())
    q.push(1.0, "b", object())  # would raise if heap compared payloads
    assert q.pop()[2] == "a"


def test_len_and_bool():
    q = EventQueue()
    assert not q and len(q) == 0
    q.push(1.0, "a")
    assert q and len(q) == 1


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        EventQueue().pop()


def test_scheduling_into_past_rejected():
    q = EventQueue()
    q.push(5.0, "a")
    q.pop()
    with pytest.raises(SimulationError):
        q.push(4.0, "late")
    q.push(5.0, "same-time-ok")
