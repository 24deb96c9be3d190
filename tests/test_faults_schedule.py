"""Fault schedules: validation, ordering, serialization, generation."""

import pytest

from repro.errors import FaultInjectionError
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    random_fault_schedule,
)
from repro.topology import line_network, ring_network


class TestFaultEvent:
    def test_link_target_coerced_to_tuple(self):
        event = FaultEvent(1.0, "link_down", ["A", "B"])
        assert event.target == ("A", "B")
        assert event.link == ("A", "B")

    def test_negative_time_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(-0.1, "link_down", ("A", "B"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(0.0, "meteor_strike", "A")

    def test_link_kind_needs_pair(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(0.0, "link_down", "A")

    def test_router_down_needs_target(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(0.0, "router_down")

    def test_controller_kinds_take_no_target(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(0.0, "controller_crash", "A")
        FaultEvent(0.0, "controller_crash")  # fine

    def test_link_property_guarded(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(0.0, "router_down", "A").link

    def test_dict_roundtrip(self):
        event = FaultEvent(0.5, "link_down", ("A", "B"))
        assert FaultEvent.from_dict(event.to_dict()) == event


class TestFaultSchedule:
    def test_sorted_by_time_stable(self):
        schedule = FaultSchedule(
            [
                FaultEvent(2.0, "link_up", ("A", "B")),
                FaultEvent(1.0, "link_down", ("A", "B")),
            ]
        )
        assert [e.kind for e in schedule] == ["link_down", "link_up"]
        assert schedule.horizon == 2.0

    def test_double_down_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule(
                [
                    FaultEvent(1.0, "link_down", ("A", "B")),
                    FaultEvent(2.0, "link_down", ("B", "A")),
                ]
            )

    def test_up_without_down_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule([FaultEvent(1.0, "link_up", ("A", "B"))])

    def test_restore_without_crash_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule([FaultEvent(1.0, "controller_restore")])

    def test_double_crash_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule(
                [
                    FaultEvent(1.0, "controller_crash"),
                    FaultEvent(2.0, "controller_crash"),
                ]
            )

    def test_down_up_down_accepted(self):
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, "link_down", ("A", "B")),
                FaultEvent(2.0, "link_up", ("A", "B")),
                FaultEvent(3.0, "link_down", ("A", "B")),
            ]
        )
        assert len(schedule) == 3

    def test_topology_validation(self):
        net = line_network(3)  # r0 -- r1 -- r2
        with pytest.raises(FaultInjectionError):
            FaultSchedule(
                [FaultEvent(1.0, "link_down", ("r0", "r2"))],
                network=net,
            )
        with pytest.raises(FaultInjectionError):
            FaultSchedule(
                [FaultEvent(1.0, "router_down", "r9")], network=net
            )
        FaultSchedule(
            [FaultEvent(1.0, "link_down", ("r0", "r1"))], network=net
        )

    def test_json_roundtrip_bit_identical(self, tmp_path):
        schedule = FaultSchedule(
            [
                FaultEvent(0.5, "link_down", ("A", "B")),
                FaultEvent(0.7, "controller_crash"),
                FaultEvent(0.9, "controller_restore"),
                FaultEvent(1.5, "link_up", ("A", "B")),
            ]
        )
        path = tmp_path / "faults.json"
        schedule.save(str(path))
        loaded = FaultSchedule.load(str(path))
        assert loaded.to_json() == schedule.to_json()

    def test_bad_schema_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule.from_dict({"schema": "nope", "events": []})

    def test_topology_kinds_filters_controller_events(self):
        schedule = FaultSchedule(
            [
                FaultEvent(0.5, "link_down", ("A", "B")),
                FaultEvent(0.7, "controller_crash"),
            ]
        )
        assert [e.kind for e in schedule.topology_kinds()] == [
            "link_down"
        ]


class TestRandomFaultSchedule:
    def test_deterministic_in_seed(self):
        net = ring_network(6)
        one = random_fault_schedule(
            net, seed=3, horizon=10.0, link_failures=2
        )
        two = random_fault_schedule(
            net, seed=3, horizon=10.0, link_failures=2
        )
        assert one.to_json() == two.to_json()
        different = random_fault_schedule(
            net, seed=4, horizon=10.0, link_failures=2
        )
        assert different.to_json() != one.to_json()

    def test_never_disconnects(self):
        # Every drawn link is individually removable; a line network has
        # no removable links at all.
        net = line_network(4)
        with pytest.raises(FaultInjectionError):
            random_fault_schedule(
                net, seed=0, horizon=10.0, link_failures=1
            )

    def test_valid_schedule_on_ring(self):
        net = ring_network(6)
        schedule = random_fault_schedule(
            net,
            seed=11,
            horizon=10.0,
            link_failures=3,
        )
        # Validation ran in the constructor; every down precedes its up.
        downs = [e for e in schedule if e.kind == "link_down"]
        assert len(downs) == 3
        assert all(0 < e.time < 10.0 for e in schedule)
