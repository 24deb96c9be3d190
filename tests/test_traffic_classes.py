"""Traffic classes and the registry."""

import math

import pytest

from repro.errors import ClassRegistryError, TrafficError
from repro.traffic import (
    BEST_EFFORT_PRIORITY,
    ClassRegistry,
    TrafficClass,
    video_class,
    voice_class,
)


def data_class():
    """A bulk class with a loose deadline, below video in priority."""
    return TrafficClass("data", burst=12_000.0, rate=2e6, deadline=0.5, priority=3)


class TestTrafficClass:
    def test_paper_voice_parameters(self):
        vc = voice_class()
        assert vc.burst == 640.0
        assert vc.rate == 32_000.0
        assert vc.deadline == pytest.approx(0.1)
        assert vc.priority == 1
        assert vc.is_realtime

    def test_best_effort(self):
        be = TrafficClass.best_effort()
        assert not be.is_realtime
        assert math.isinf(be.deadline)
        assert be.priority == BEST_EFFORT_PRIORITY

    def test_envelope_matches_parameters(self):
        vc = voice_class()
        env = vc.envelope()
        assert env(0.0) == 640.0
        assert env(1.0) == pytest.approx(640 + 32_000)

    def test_envelope_clamped(self):
        env = voice_class().envelope(line_rate=100e6)
        assert env(0.0) == 0.0

    def test_invalid_deadline(self):
        with pytest.raises(TrafficError):
            TrafficClass("x", burst=1, rate=1, deadline=0.0, priority=1)

    def test_realtime_requires_positive_burst(self):
        with pytest.raises(TrafficError):
            TrafficClass("x", burst=0, rate=1, deadline=0.1, priority=1)

    def test_realtime_requires_positive_rate(self):
        with pytest.raises(TrafficError):
            TrafficClass("x", burst=1, rate=0, deadline=0.1, priority=1)

    def test_empty_name_rejected(self):
        with pytest.raises(TrafficError):
            TrafficClass("", burst=1, rate=1, deadline=0.1, priority=1)

    def test_frozen(self):
        vc = voice_class()
        with pytest.raises(Exception):
            vc.rate = 999


class TestClassRegistry:
    def test_two_class_helper(self):
        reg = ClassRegistry.two_class(voice_class())
        assert len(reg) == 2
        assert [c.name for c in reg.realtime_classes()] == ["voice"]
        assert len(reg.best_effort_classes()) == 1

    def test_priority_ordering(self):
        reg = ClassRegistry(
            [data_class(), voice_class(), video_class()]
        )
        assert reg.names() == ["voice", "video", "data"]

    def test_duplicate_name_rejected(self):
        reg = ClassRegistry([voice_class()])
        with pytest.raises(ClassRegistryError):
            reg.add(voice_class())

    def test_duplicate_priority_rejected(self):
        reg = ClassRegistry([voice_class()])
        with pytest.raises(ClassRegistryError):
            reg.add(video_class(priority=1))

    def test_best_effort_must_be_lowest(self):
        be = TrafficClass("be", burst=0, rate=0, deadline=math.inf, priority=0)
        with pytest.raises(ClassRegistryError):
            ClassRegistry([be, voice_class()])

    def test_unknown_class(self):
        reg = ClassRegistry([voice_class()])
        with pytest.raises(ClassRegistryError):
            reg.get("ghost")

    def test_contains_and_iter(self):
        reg = ClassRegistry([voice_class(), video_class()])
        assert "voice" in reg and "ghost" not in reg
        assert [c.name for c in reg] == ["voice", "video"]

